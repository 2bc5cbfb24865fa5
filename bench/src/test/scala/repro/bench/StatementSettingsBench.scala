package repro.bench

import org.apache.spark.sql.execution.FileSourceScanExec
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.internal.SQLConf

import repro.SparkSpec
import repro.core.Verdict
import repro.exp.Workloads
import repro.util.Timing

/** The per-statement settings (`Verdict.statementSettings`): rewritten
  * statements over the SF 1 sample suite (tau 1%: 60 K-row lineitem
  * samples, 15 K-row orders samples, dimensions read whole), and one exact
  * join over whole tables for the other end of each rule, min of 5 warm
  * runs each.
  *
  * The shuffle width gives one partition per `Verdict.RowsPerPartition`
  * rows read. On the rewritten statements its widths should run about as
  * fast as the best fixed width and beat the session's; on the exact join
  * they should beat width 1.
  *
  * Code generation is off at most `Verdict.InterpretedRows` rows. Each run
  * of a rewritten statement gets a fresh `rand` seed, as each
  * `Verdict.sql` does, so generated code compiles on every run. The
  * rule's choice should run about as fast as the faster mode, and
  * generated code should win on the exact join.
  */
class StatementSettingsBench extends SparkSpec with AdaptiveSparkPlanHelper {

  private def sqlOf(name: String) = Workloads.all.find(_.name == name).get.sql

  /** The bench statements with the rows they read, from the scans of one
    * run of each: six rewritten statements, then exact tq12. */
  private lazy val statements: Seq[(String, String, Long)] = {
    val env = BenchEnv.freshEnv
    val rewritten = Seq("tq1", "tq6", "tq12", "tq14", "tq5", "iq4").map { name =>
      val r = env.verdict.sql(sqlOf(name))
      assert(r.approximate, s"$name: ${r.notes}")
      name -> r.rewrittenSql.get
    }
    (rewritten :+ ("tq12 exact" -> sqlOf("tq12"))).map { case (name, stmt) =>
      val df = spark.sql(stmt)
      df.collect()
      val rows = collect(df.queryExecution.executedPlan) {
        case s: FileSourceScanExec => s.metrics("numOutputRows").value
      }.sum
      (name, stmt, rows)
    }
  }

  private def session = spark.conf.get(SQLConf.SHUFFLE_PARTITIONS.key).toInt

  private def width(w: Int) = Seq(SQLConf.SHUFFLE_PARTITIONS.key -> w.toString)

  /** The settings that turn generated code off. */
  private def noCodegen =
    Verdict.statementSettings(0L, 1).filterNot(_._1 == SQLConf.SHUFFLE_PARTITIONS.key)

  test("shuffle width: the rule's width runs about as fast as the best fixed width") {
    val fixed = Seq(1, 2, 4, 8, 16, session).distinct
    println(s"\n== shuffle width (rows per partition ${Verdict.RowsPerPartition}) ==")
    println(s"  statement     rows  rule  " + fixed.map(w => f"w=$w%-5d").mkString(" ") + "  rule ms")
    val results = statements.map { case (name, stmt, rows) =>
      val rule = Verdict.shuffleWidth(rows, session)
      def ms(w: Int) = {
        val configured = Verdict.statementSession(spark, width(w))
        Timing.minMs(reps = 5, warmup = 2)(configured.sql(stmt).collect())
      }
      val byWidth = fixed.map(w => w -> ms(w)).toMap
      val ruleMs  = byWidth.getOrElse(rule, ms(rule))
      println(f"  $name%-10s $rows%8d $rule%5d  " +
        fixed.map(w => f"${byWidth(w)}%7.1f").mkString(" ") + f"  $ruleMs%7.1f")
      (ruleMs, byWidth)
    }
    val (aqp, Seq((exactRule, exactByWidth))) = results.splitAt(results.size - 1)
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

  test("code generation: the rule's choice runs about as fast as the faster mode") {
    var seed = 1000L
    println(s"\n== code generation (interpreted at most ${Verdict.InterpretedRows} rows) ==")
    println("  statement     rows  width  generated  interpreted  rule")
    val results = statements.map { case (name, stmt, rows) =>
      val interpreted = rows <= Verdict.InterpretedRows
      val w           = Verdict.shuffleWidth(rows, session)
      // a fresh seed per run, as each Verdict.sql renders one
      def ms(codegen: Boolean) = {
        val configured =
          Verdict.statementSession(spark, if (codegen) width(w) else width(w) ++ noCodegen)
        Timing.minMs(reps = 5, warmup = 2) {
          seed += 7919
          configured.sql(stmt.replaceAll("""rand\(-?\d+\)""", s"rand($seed)")).collect()
        }
      }
      val (compiled, interp) = (ms(codegen = true), ms(codegen = false))
      println(f"  $name%-10s $rows%8d $w%6d  $compiled%9.1f  $interp%11.1f  " +
        (if (interpreted) "interpreted" else "generated"))
      (if (interpreted) interp else compiled, compiled, interp)
    }
    val (aqp, Seq((_, exactCompiled, exactInterpreted))) = results.splitAt(results.size - 1)
    val (ruleTotal, compiledTotal, interpretedTotal) =
      (aqp.map(_._1).sum, aqp.map(_._2).sum, aqp.map(_._3).sum)
    println(f"  rewritten statements, total: rule $ruleTotal%.1f ms; generated " +
      f"$compiledTotal%.1f, interpreted $interpretedTotal%.1f")
    assert(ruleTotal < 1.25 * math.min(compiledTotal, interpretedTotal),
      "the rule's choice should run about as fast as the faster mode")
    assert(exactCompiled < exactInterpreted,
      "a statement over millions of rows should run faster with generated code")
  }
}
