package repro.bench

import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper

import repro.SparkSpec
import repro.core.Verdict
import repro.exp.Workloads
import repro.util.Timing

/** The per-statement shuffle width (`Verdict.shuffleWidth`): rewritten
  * statements over the SF 1 sample suite (tau 1%: 60 K-row lineitem
  * samples, 15 K-row orders samples, dimensions read whole), and one exact
  * join over whole tables for the other end of the rule, timed at fixed
  * shuffle widths and at the rule's width, min of 5 warm runs each. The rule
  * gives one partition per `Verdict.RowsPerPartition` rows read. On the
  * rewritten statements its widths should run about as fast as the best
  * fixed width and beat the session's; on the exact join they should beat
  * width 1.
  */
class ShuffleWidthBench extends SparkSpec with AdaptiveSparkPlanHelper {

  test("shuffle width: the rule's width runs about as fast as the best fixed width") {
    val env     = BenchEnv.freshEnv
    val session = spark.conf.get("spark.sql.shuffle.partitions").toInt
    def sqlOf(name: String) = Workloads.all.find(_.name == name).get.sql
    val rewritten = Seq("tq1", "tq6", "tq12", "tq14", "tq5", "iq4").map { name =>
      val r = env.verdict.sql(sqlOf(name))
      assert(r.approximate, s"$name: ${r.notes}")
      name -> r.rewrittenSql.get
    }
    val statements = rewritten :+ ("tq12 exact" -> sqlOf("tq12"))
    val fixed      = Seq(1, 2, 4, 8, 16, session).distinct
    println(s"\n== shuffle width (rows per partition ${Verdict.RowsPerPartition}) ==")
    println(s"  statement     rows  rule  " + fixed.map(w => f"w=$w%-5d").mkString(" ") + "  rule ms")
    val results = statements.map { case (name, stmt) =>
      // the rows the statement reads, from the scans of one run of it
      val df = spark.sql(stmt)
      df.collect()
      val rows = collect(df.queryExecution.executedPlan) {
        case s: FileSourceScanExec => s.metrics("numOutputRows").value
      }.sum
      val rule = Verdict.shuffleWidth(rows, session)
      def ms(w: Int) = Verdict.withShuffleWidth(spark, w) {
        Timing.minMs(reps = 5, warmup = 2)(spark.sql(stmt).collect())
      }
      val byWidth = fixed.map(w => w -> ms(w)).toMap
      val ruleMs  = byWidth.getOrElse(rule, ms(rule))
      println(f"  $name%-10s $rows%8d $rule%5d  " +
        fixed.map(w => f"${byWidth(w)}%7.1f").mkString(" ") + f"  $ruleMs%7.1f")
      (ruleMs, byWidth)
    }
    val (aqp, Seq((exactRule, exactByWidth))) = results.splitAt(rewritten.size)
    val ruleTotal = aqp.map(_._1).sum
    val totals    = fixed.map(w => w -> aqp.map(_._2(w)).sum).toMap
    println(f"  rewritten statements, total: rule $ruleTotal%.1f ms; " +
      fixed.map(w => f"w=$w ${totals(w)}%.1f").mkString(", "))
    assert(ruleTotal < totals(session),
      s"the rule's widths should beat the session's $session partitions")
    assert(ruleTotal < 1.25 * totals.values.min,
      "the rule's widths should run about as fast as the best fixed width")
    assert(exactRule < exactByWidth(1),
      "a statement over millions of rows should run faster at the rule's width than at width 1")
  }
}
