package perfbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}

import org.apache.spark.sql.{Row, SparkSession}
import org.apache.spark.sql.classic.ClassicConversions._

import repro.core.{Verdict, VerdictResult}
import repro.exp.Workloads

import scala.collection.mutable

/** A span of the traced run: one layer call of one query. */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long,
                      parent: Int, query: Int) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** The traced run. Spans are taken from the harness, around the public entry
  * point of each layer; they are held in memory and written when the run
  * ends.
  *
  * Per query: `verdict.sql` (the facade, as the program runs it), then
  * `optimize` (the program's DataFrame to its executed plan) and `execute`
  * (collect). Only then are `parse`, `plan` and `rewrite` replayed and the
  * replayed SQL analysed by Spark (`analyze`); their spans are children of
  * `verdict.sql`, laid out from their measured durations. Statements the
  * engine ran are added as `engine.statement` spans from the query-execution
  * listener. Queries the middleware does not rewrite itself (pass-through,
  * min/max decomposition) have no replay spans.
  */
final class Tracer {
  private val spans    = mutable.ArrayBuffer.empty[Span]
  private val perQuery = mutable.ArrayBuffer.empty[(String, Map[String, Double])]
  val mismatches       = mutable.ArrayBuffer.empty[String]
  var replayed         = 0

  private def add(name: String, s: Long, e: Long, parent: Int, q: Int): Span = {
    val sp = Span(spans.size + 1, name, s, e, parent, q)
    spans += sp
    sp
  }

  private def timed[A](name: String, parent: Int, q: Int)(f: => A): (A, Span) = {
    val s = System.nanoTime()
    val a = f
    (a, add(name, s, System.nanoTime(), parent, q))
  }

  /** Runs one query traced; returns the answer and the program-path latency
    * (facade + optimise + execute).
    */
  def query(spark: SparkSession, verdict: Verdict, counters: EngineCounters,
            q: Query): (VerdictResult, Array[Row], Double) = {
    counters.drain(spark)
    val qid  = perQuery.size + 1
    val root = add("query", System.nanoTime(), 0L, 0, qid)
    val m    = mutable.LinkedHashMap.empty[String, Double]

    // The program's own path, uninterrupted: facade, then the executed plan
    // of its DataFrame, then collect.
    val (r, vs)    = timed("verdict.sql", root.id, qid)(verdict.sql(q.sql))
    val (_, os)    = timed("optimize", root.id, qid)(r.df.queryExecution.executedPlan)
    val (rows, es) = timed("execute", root.id, qid)(r.df.collect())
    spans(root.id - 1) = root.copy(endNs = es.endNs)
    val snap = counters.drain(spark)

    // The replay runs after the rows are in hand, so it costs the program's
    // spans nothing. Its spans are placed inside `verdict.sql`, end to end
    // from its start, in the order the facade runs those layers.
    var replayMs = 0.0
    Replay.run(spark, verdict, q.sql).foreach { rp =>
      val analyzeMs =
        if (rp.sql.isEmpty) None
        else {
          val s = System.nanoTime(); spark.sql(rp.sql); Some((System.nanoTime() - s) / 1e6)
        }
      var t = vs.startNs
      for ((name, ms) <- Seq("parse" -> rp.parseMs, "plan" -> rp.planMs,
             "rewrite" -> rp.rewriteMs) ++ analyzeMs.map("analyze" -> _)) {
        val e = t + (ms * 1e6).toLong
        add(name, t, e, vs.id, qid); t = e
        m(s"$name.ms") = ms; replayMs += ms
      }
      m("plan.candidates_raw") = rp.rawCandidates.toDouble
      m("plan.blocks") = rp.blocks.toDouble
      m("plan.effective_ratio") = rp.effectiveRatio
      m("rewrite.b") = rp.b
      m("rewrite.sql_chars") = rp.sql.length.toDouble
      r.rewrittenSql.foreach { s =>
        replayed += 1
        if (Replay.normalize(s) != Replay.normalize(rp.sql))
          mismatches += s"${q.name}: program ran [${s.take(160)}...], replay gave [${rp.sql.take(160)}...]"
        else m("verdict.self_ms") = math.max(0.0, vs.ms - replayMs - engineMs(snap, vs))
      }
    }

    snap.statements.foreach(st =>
      add("engine.statement", st.endNs - st.durationNs, st.endNs, root.id, qid))
    m("verdict.sql_ms") = vs.ms
    m("optimize.ms") = os.ms
    m("execute.ms") = es.ms
    m("execute.statements") = snap.statements.size.toDouble
    m("execute.scans") = snap.statements.map(_.scans).sum.toDouble
    m("execute.scan_bytes") = snap.scanBytes.toDouble
    m("execute.scan_rows") = snap.statements.map(_.scanRows).sum.toDouble
    m("execute.shuffle_partitions") = snap.statements.map(_.shufflePartitions).sum.toDouble
    m("execute.shuffle_bytes") = snap.shuffleBytes.toDouble
    m("execute.stages") = snap.stages.toDouble
    m("execute.tasks") = snap.tasks.toDouble
    m("execute.task_ms") = snap.taskMs.toDouble
    for (phase <- Seq("analysis", "optimization", "planning"))
      m(s"spark.$phase.ms") = snap.statements.map(_.phasesMs.getOrElse(phase, 0L)).sum.toDouble
    val hacRerun = r.notes.startsWith("HAC violated")
    m("verdict.hac_reruns") = if (hacRerun) 1.0 else 0.0
    m("verdict.passthrough") = if (!r.approximate && !hacRerun) 1.0 else 0.0
    m("verdict.decomposed") = if (r.notes == "decomposed extreme statistics") 1.0 else 0.0
    perQuery += q.name -> m.toMap
    (r, rows, vs.ms + os.ms + es.ms)
  }

  /** Engine time of the statements that ran inside the facade call (HAC's
    * collect): engine time, not facade time.
    */
  private def engineMs(snap: EngineSnapshot, facade: Span): Double =
    snap.statements.filter(_.endNs <= facade.endNs).map(_.durationNs / 1e6).sum

  private def unit(name: String): String =
    if (name.endsWith(".ms") || name.endsWith("_ms")) "ms"
    else if (name.endsWith("_bytes")) "bytes"
    else if (name.endsWith("_rows")) "rows"
    else if (name.endsWith("_chars")) "chars"
    else if (name.endsWith("_ratio")) "ratio"
    else "count"

  /** Per-query means; a metric is averaged over the queries that have it. */
  def metrics: Seq[(String, (Double, String))] = {
    val names = perQuery.flatMap(_._2.keys).distinct
    names.map { k =>
      k -> (Main.mean(perQuery.flatMap(_._2.get(k))), unit(k))
    }.toSeq
  }

  def write(p: Path): Unit = {
    Files.createDirectories(p.getParent)
    val rows = spans.map { s =>
      s"""{"id": ${s.id}, "name": "${s.name}", "start_ns": ${s.startNs}, """ +
        s""""end_ns": ${s.endNs}, "parent": ${s.parent}, "query": ${s.query}}"""
    }
    val names = perQuery.zipWithIndex.map { case ((n, _), i) => s""""${i + 1}": "$n"""" }
    Files.write(p, (s"""{"queries": {${names.mkString(", ")}},\n "spans": [\n""" +
      rows.mkString(",\n") + "\n]}\n").getBytes(UTF_8))
  }
}

/** Checks that the engine counters read the plan the engine really ran:
  * exact tq6 must read all of `lineitem`'s Parquet bytes, and the rewritten
  * tq6 all the Parquet bytes of the one sample it names. The rewrite comes
  * from the replay, so an accuracy contract cannot swap in the exact query.
  */
object SelfTest {
  final case class Result(ok: Boolean, message: String)

  def apply(spark: SparkSession, verdict: Verdict, counters: EngineCounters,
            base: Map[String, Path], sampleDirs: Map[String, Path]): Result = {
    val tq6 = Workloads.all.find(_.name == "tq6").get.sql
    counters.drain(spark)
    spark.sql(tq6).collect()
    val exact = counters.drain(spark).scanBytes
    val rewritten = Replay.run(spark, verdict, tq6).map(_.sql).getOrElse("")
    spark.sql(rewritten).collect()
    val aqp = counters.drain(spark).scanBytes
    val lineitem = Data.parquetBytes(base("lineitem"))
    val named = sampleDirs.keys.filter(t => rewritten.matches(s"(?s).*\\bFROM $t\\b.*")).toSeq
    val sample = named.map(t => Data.parquetBytes(sampleDirs(t))).sum
    Result(exact == lineitem && named.size == 1 && aqp == sample,
      s"exact tq6 read $exact bytes (lineitem Parquet: $lineitem); rewritten tq6 read " +
        s"$aqp bytes (Parquet of ${named.mkString(", ")}: $sample)")
  }
}
