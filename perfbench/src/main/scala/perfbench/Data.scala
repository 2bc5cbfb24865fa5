package perfbench

import java.nio.file.{Files, Path}

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.SynthData
import repro.core._
import repro.data.InstaData

import java.util.concurrent.Executors

import scala.concurrent.{Await, ExecutionContext, Future}
import scala.concurrent.duration.Duration
import scala.jdk.CollectionConverters._

/** Base data, the sample suite, and the exact answers the checks use. */
object Data {

  val Tables: Seq[String] = Seq("lineitem", "orders", "customer", "part",
    "order_items", "insta_orders", "insta_products")

  /** The 9-sample suite of `BenchData.standardEnv`. */
  final case class SampleSpec(base: String, kind: SampleType, cols: Seq[String])
  val Samples: Seq[SampleSpec] = Seq(
    SampleSpec("lineitem", SampleType.Uniform, Nil),
    SampleSpec("lineitem", SampleType.Hashed, Seq("l_orderkey")),
    SampleSpec("lineitem", SampleType.Stratified, Seq("l_returnflag", "l_linestatus")),
    SampleSpec("orders", SampleType.Uniform, Nil),
    SampleSpec("orders", SampleType.Hashed, Seq("o_orderkey")),
    SampleSpec("order_items", SampleType.Uniform, Nil),
    SampleSpec("order_items", SampleType.Hashed, Seq("oi_order_id")),
    SampleSpec("insta_orders", SampleType.Uniform, Nil),
    SampleSpec("insta_orders", SampleType.Hashed, Seq("io_order_id")))

  /** Each table gets its own seed stream, derived from the workload seed.
    * `BenchData.generator` drops the seed, so the generators are called
    * directly.
    */
  private def generate(spark: SparkSession, table: String, sf: Double,
                       seed: Long): DataFrame = {
    val s = seed * 1000
    table match {
      case "lineitem"       => SynthData.lineitem(spark, sf, s)
      case "orders"         => SynthData.orders(spark, sf, s + 100)
      case "customer"       => SynthData.customer(spark, sf, s + 200)
      case "part"           => SynthData.part(spark, sf, s + 300)
      case "order_items"    => InstaData.orderItems(spark, sf, s + 400)
      case "insta_orders"   => InstaData.instaOrders(spark, sf, s + 500)
      case "insta_products" => InstaData.instaProducts(spark, sf, s + 600)
    }
  }

  private def dataFiles(dir: Path): Seq[Path] =
    if (!Files.isDirectory(dir)) Nil
    else {
      val s = Files.list(dir)
      try s.iterator().asScala.filter { p =>
        val n = p.getFileName.toString
        n.startsWith("part-") && n.endsWith(".parquet")
      }.toList finally s.close()
    }

  /** Parquet bytes of a table directory. */
  def parquetBytes(dir: Path): Long = dataFiles(dir).map(Files.size).sum

  /** Writes the base tables under `dataDir`, concurrently: this is
    * harness work, and one Spark job at a time would leave the cores idle
    * between jobs. Returns the table directories.
    */
  def writeBase(spark: SparkSession, dataDir: Path, sf: Double,
                seed: Long): Map[String, Path] = {
    val pool = Executors.newFixedThreadPool(Tables.size)
    implicit val ec: ExecutionContext = ExecutionContext.fromExecutor(pool)
    try {
      val writes = Tables.map { t =>
        val dir = dataDir.resolve(t)
        Future {
          generate(spark, t, sf, seed).write.parquet(dir.toString)
          t -> dir
        }
      }
      Await.result(Future.sequence(writes), Duration.Inf).toMap
    } finally pool.shutdown()
  }

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) {
      val s = Files.walk(p)
      try s.iterator().asScala.toList.reverse.foreach(Files.delete) finally s.close()
    }

  /** One timed set-up: register the base tables with a fresh Verdict (row
    * counts and column cardinalities), then build, persist and register the
    * sample suite. Per-step times feed the per-layer metrics.
    */
  final case class Setup(verdict: Verdict, seconds: Double, statsMs: Double,
                         sampleMs: Map[SampleType, Seq[Double]],
                         stratifiedJobs: Seq[Long], sampleRows: Long,
                         sampleDirs: Map[String, Path])

  def setup(spark: SparkSession, counters: EngineCounters, base: Map[String, Path],
            sampleRoot: Path, cfg: VerdictConfig, countJobs: Boolean): Setup = {
    counters.drain(spark)
    val tables  = Tables.map(t => t -> spark.read.parquet(base(t).toString))
    val t0      = System.nanoTime()
    val verdict = new Verdict(spark, cfg)
    tables.foreach { case (t, df) => verdict.registerTable(t, df) }
    val t1 = System.nanoTime()
    val built = Samples.zipWithIndex.map { case (spec, i) =>
      val counted = countJobs && spec.kind == SampleType.Stratified
      if (counted) counters.drain(spark)
      val s0 = System.nanoTime()
      val df = spark.table(spec.base)
      val (sdf, info) = spec.kind match {
        case SampleType.Uniform =>
          SampleCreator.uniform(df, spec.base, cfg.tau, cfg.seed * 31 + i)
        case SampleType.Hashed =>
          SampleCreator.hashed(df, spec.base, spec.cols, cfg.tau)
        case SampleType.Stratified =>
          SampleCreator.stratified(df, spec.base, spec.cols, cfg.tau, seed = cfg.seed * 31 + i)
      }
      val dir = sampleRoot.resolve(info.sampleTable)
      sdf.write.mode("overwrite").parquet(dir.toString)
      spark.read.schema(sdf.schema).parquet(dir.toString).createOrReplaceTempView(info.sampleTable)
      verdict.catalog.register(info)
      val ms   = (System.nanoTime() - s0) / 1e6
      val jobs = if (counted) counters.drain(spark).jobs else -1L
      (spec.kind, ms, jobs, info, dir)
    }
    val t2 = System.nanoTime()
    Setup(verdict, (t2 - t0) / 1e9, (t1 - t0) / 1e6,
      built.groupBy(_._1).map { case (k, v) => k -> v.map(_._2) },
      built.map(_._3).filter(_ >= 0),
      built.map(_._4.sampleRows).sum,
      built.map(b => b._4.sampleTable -> b._5).toMap)
  }
}
