package perfbench

import java.nio.file.{Files, Path, Paths}

import org.apache.commons.math3.distribution.BetaDistribution
import org.apache.spark.sql.{Row, SparkSession}

import repro.core.{SampleType, VerdictConfig, VerdictResult}

import scala.collection.mutable
import scala.util.Random

/** One closed-loop client: the next query is sent when the previous one's
  * rows are in hand. Prints every metric by name and unit, then one JSON
  * result line. See perfbench/README.md.
  */
object Main {

  final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean,
                        work: Path, cores: Int)

  private def parseOpts(args: Array[String]): Opts = {
    val m = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Opts(m("workload"), m("seed").toLong, m("seconds").toDouble, m("trace") == "1",
      Paths.get(m("work")).toAbsolutePath, m("cores").toInt)
  }

  // The benchmark's pinned settings (recorded in perfbench/README.md). They
  // are constants so that both sides of a comparison run with the same ones.
  val ScaleFactor       = 0.05
  val Tau               = 0.01
  val BudgetFraction    = 0.05
  val ShufflePartitions = 64
  /** contract-mix's accuracyRequirement; it belongs to the scale factor. */
  val ContractAccuracy  = 0.2
  /** --seconds asks for one timed round per this many seconds (at least one):
    * a count fixed by the argument, not by how fast the rounds run, so both
    * sides of a comparison time the same queries. A warm round takes about
    * this long on 4 cores.
    */
  val SecondsPerRound   = 10.0

  def timedRounds(seconds: Double): Int = math.max(1, math.round(seconds / SecondsPerRound).toInt)

  /** Every setting that changes timings is pinned here, not inherited. */
  private def session(o: Opts): SparkSession =
    SparkSession.builder
      .master(s"local[${o.cores}]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", ShufflePartitions.toString)
      .config("spark.sql.adaptive.enabled", "true")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.sql.adaptive.autoBroadcastJoinThreshold", "-1")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", o.work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", o.work.resolve("warehouse").toString)
      .getOrCreate()

  def main(args: Array[String]): Unit = {
    val o = parseOpts(args)
    require(Queries.workloads.contains(o.workload), s"unknown workload ${o.workload}")
    val spark = session(o)
    val code =
      try { new Run(spark, o).apply(); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
      finally spark.stop()
    sys.exit(code)
  }

  /** Harrell-Davis estimate of the p-quantile: a mean of all order
    * statistics, weighted by a Beta((n+1)p, (n+1)(1-p)) distribution. A
    * timed round holds one run of each of 17-21 queries; this estimate moves
    * less than an interpolation between two order statistics when queries
    * of similar latency swap ranks.
    */
  def hdQuantile(xs: Seq[Double], p: Double): Double = {
    val s = xs.sorted
    val n = s.size
    if (n < 2) s.headOption.getOrElse(Double.NaN)
    else {
      val beta = new BetaDistribution((n + 1) * p, (n + 1) * (1 - p))
      s.indices.map { i =>
        (beta.cumulativeProbability((i + 1).toDouble / n) -
          beta.cumulativeProbability(i.toDouble / n)) * s(i)
      }.sum
    }
  }

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) Double.NaN else xs.sum / xs.size
}

final class Run(spark: SparkSession, o: Main.Opts) {
  import Main._

  private val counters = new EngineCounters().register(spark)
  private val out      = mutable.LinkedHashMap.empty[String, (Double, String)]
  private def metric(name: String, value: Double, unit: String): Unit = out(name) = (value, unit)
  private def info(s: String): Unit = println(s"# $s")

  private val queries = Queries.workloads(o.workload)
  private val runDir  = o.work.resolve(s"run-${ProcessHandle.current().pid()}")
  /** Generated in every run: the generating jobs also warm the JVM, so a
    * run that reused cached data would start its set-up colder.
    */
  private val dataDir = runDir.resolve("data")

  def apply(): Unit = {
    Files.createDirectories(runDir)
    try measure() finally Data.deleteTree(runDir)
  }

  private def phase(name: String): Unit = info(f"$name done at ${
    (System.currentTimeMillis() - java.lang.management.ManagementFactory.getRuntimeMXBean.getStartTime) / 1e3}%.1f s")

  /** One query of a round: the answer, or what it threw. */
  private final case class Done(q: Query, r: Option[VerdictResult], rows: Array[Row],
                                ms: Double, traced: Boolean, error: Option[String])

  private def measure(): Unit = {
    val base = Data.writeBase(spark, dataDir, ScaleFactor, o.seed)
    val expected = Answer.exact(base, queries)
    phase("data and exact answers")

    val cfg = VerdictConfig(budgetFraction = BudgetFraction, tau = Tau, seed = o.seed,
      accuracyRequirement = if (o.workload == "contract-mix") Some(ContractAccuracy) else None)
    info(s"workload=${o.workload} seed=${o.seed} sf=$ScaleFactor tau=$Tau " +
      s"budget=$BudgetFraction master=local[${o.cores}] shuffle.partitions=$ShufflePartitions " +
      s"broadcast=off accuracyRequirement=${cfg.accuracyRequirement.getOrElse("none")}")

    // One set-up per run, as a fresh process does it once. Its Verdict is
    // fresh and seeded from the workload seed, and serves the queries.
    val env = Data.setup(spark, counters, base, runDir.resolve("samples"), cfg, o.trace)
    val verdict = env.verdict
    phase("set-up")

    val baseBytes   = base.values.map(Data.parquetBytes).sum
    val sampleBytes = env.sampleDirs.values.map(Data.parquetBytes).sum
    val tol  = Check.exactTolerance(Data.Tables.flatMap(verdict.tableStats).map(_.rows).max)
    val keys = queries.map { q =>
      q.name -> verdict.parse(q.sql).fold(r => sys.error(s"${q.name}: $r"),
        _.plainItems.map(_.alias))
    }.toMap
    counters.drain(spark)

    val tracer = new Tracer
    def runOne(q: Query, traced: Boolean): Done =
      try {
        if (traced) {
          val (r, rows, ms) = tracer.query(spark, verdict, counters, q)
          Done(q, Some(r), rows, ms, traced, None)
        } else {
          val s    = System.nanoTime()
          val r    = verdict.sql(q.sql)
          val rows = r.df.collect()
          Done(q, Some(r), rows, (System.nanoTime() - s) / 1e6, traced, None)
        }
      } catch {
        case e: Exception => Done(q, None, Array.empty, 0.0, traced, Some(s"threw $e".take(300)))
      }

    // Round 0 runs every query once on the fresh Verdict in an order fixed
    // by the seed, so the quality and scan metrics taken from it repeat
    // exactly for a seed. It is also the warm-up (the first run of a query
    // compiles its generated code) and is not timed. Then come the timed
    // rounds, a fixed number, each a seeded shuffle of the workload. The
    // traced run has one timed round that runs each query twice, traced and
    // untraced in alternating order, so the tracing overhead is measured on
    // equally warm queries.
    val rng    = new Random(o.seed)
    val round0 = rng.shuffle(queries).map(runOne(_, traced = false))
    val round0Scan = counters.drain(spark).scanBytes
    phase("round 0")
    val rounds = mutable.ArrayBuffer.empty[Seq[Done]]
    val t0     = System.nanoTime()
    if (o.trace)
      rounds += rng.shuffle(queries).zipWithIndex.flatMap { case (q, i) =>
        (if (i % 2 == 0) Seq(true, false) else Seq(false, true)).map(t => runOne(q, traced = t))
      }
    else
      while (rounds.size < timedRounds(o.seconds))
        rounds += rng.shuffle(queries).map(runOne(_, traced = false))
    val roundS = (System.nanoTime() - t0) / 1e9
    counters.drain(spark)
    phase("timed rounds")

    val timed = rounds.flatten.toSeq
    val all   = round0 ++ timed
    val outcomes = all.map { d =>
      d.error.map(e => Outcome(Seq(e), Nil, 0, 0, Nil)).getOrElse {
        val r = d.r.get
        Check(expected(d.q.name), Answer.of(r.df.columns.toSeq, d.rows.toSeq),
          keys(d.q.name), r.errColumns, d.q.limited, tol)
      }
    }
    val failed   = outcomes.count(_.problems.nonEmpty)
    val problems = mutable.ArrayBuffer.empty[String]
    all.zip(outcomes).filterNot(_._2.ok).map { case (d, oc) =>
      s"${d.q.name}: ${(oc.problems ++ oc.misses).take(2).mkString("; ")}"
    }.distinct.take(20).foreach(p => info(s"answer check: $p"))

    rounds.zipWithIndex.foreach { case (r, k) =>
      info(s"timed round $k: " + r.map(d => f"${d.q.name} ${d.ms}%.0f").mkString(", ") + " ms") }
    val first     = round0.zip(outcomes.take(round0.size))
    val firstOk   = first.map(_._2)
    val cells     = firstOk.map(_.approxCells).sum
    val lat       = timed.filterNot(_.traced).filter(_.error.isEmpty).map(_.ms)
    val latTraced = timed.filter(_.traced).filter(_.error.isEmpty).map(_.ms)
    info(s"timed queries: ${lat.size} untraced + ${latTraced.size} traced in " +
      s"${rounds.size} timed rounds (${f"$roundS%.1f"} s); p90 has " +
      s"${lat.count(_ > hdQuantile(lat, 0.9))} samples beyond it; round 0: " +
      s"${first.size} queries, $cells approximate cells")

    first.sortBy(_._1.q.name).foreach { case (d, oc) =>
      val errs = if (oc.relErrPct.isEmpty) "" else f" rel_err ${mean(oc.relErrPct)}%.2f%%"
      info(f"round 0 ${d.q.name}%-12s ${d.ms}%7.0f ms approximate=${d.r.exists(_.approximate)}" +
        s" cells ${oc.covered}/${oc.approxCells} covered$errs${if (oc.ok) "" else " MISS"}")
    }
    val n = first.size.toDouble
    if (!o.trace) {
      metric("latency_p50_ms", hdQuantile(lat, 0.5), "ms")
      metric("latency_p90_ms", hdQuantile(lat, 0.9), "ms")
      metric("throughput_qps", lat.size / roundS, "1/s")
      metric("setup_s", env.seconds, "s")
      metric("scan_mb_per_query", round0Scan / 1e6 / n, "MB")
      metric("rel_err_mean_pct", mean(firstOk.flatMap(_.relErrPct)), "%")
      metric("ci_coverage", firstOk.map(_.covered).sum.toDouble / cells, "fraction")
      metric("approx_frac", first.count(_._1.r.exists(_.approximate)) / n, "fraction")
      metric("pass_frac", firstOk.count(_.ok) / n, "fraction")
      metric("sample_storage_frac", sampleBytes.toDouble / baseBytes, "fraction")
    } else {
      tracer.metrics.foreach { case (k, (v, u)) => metric(k, v, u) }
      metric("setup.stats_ms", env.statsMs, "ms")
      for (kind <- Seq(SampleType.Uniform, SampleType.Hashed, SampleType.Stratified))
        metric(s"setup.sample_ms.${kind.toString.toLowerCase}", mean(env.sampleMs(kind)), "ms")
      metric("setup.jobs.stratified", mean(env.stratifiedJobs.map(_.toDouble)), "count")
      metric("setup.sample_rows", env.sampleRows.toDouble, "rows")
      // Each query ran once traced and once not, each first for half of the
      // queries: the overhead is the traced minus the untraced median.
      metric("trace.latency_p50_ms", hdQuantile(latTraced, 0.5), "ms")
      metric("trace.overhead_ms", hdQuantile(latTraced, 0.5) - hdQuantile(lat, 0.5), "ms")
      val selfTest = SelfTest(spark, verdict, counters, base, env.sampleDirs)
      info(s"engine-counter self-test: ${selfTest.message}")
      if (!selfTest.ok) problems += s"self-test: ${selfTest.message}"
      info(s"replay check: ${tracer.replayed} queries replayed, ${tracer.mismatches.size} mismatches")
      tracer.mismatches.take(3).foreach(m => info(s"replay mismatch: $m"))
      problems ++= tracer.mismatches
      tracer.write(o.work.resolve(s"trace/${o.workload}-seed${o.seed}.json"))
    }
    out.foreach { case (k, (v, u)) => info(f"$k%-28s $v%14.6f $u") }
    phase("all")

    val correct = failed == 0 && problems.isEmpty
    val metricsJson = out.map { case (k, (v, u)) =>
      s""""$k": {"value": ${jsonNum(v)}, "unit": "$u"}"""
    }.mkString(", ")
    println(s"""PERFBENCH_RESULT {"correct": $correct, "attempted": ${all.size}, """ +
      s""""failed": $failed, "metrics": {$metricsJson}}""")
  }

  private def jsonNum(v: Double): String =
    if (v.isNaN || v.isInfinite) "null" else java.lang.Double.toString(v)
}
