package repro.exp

import java.io.File

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.{SynthData}
import repro.core._
import repro.data.InstaData

/** Parquet-backed benchmark datasets and sample preparation.
  *
  * The paper's engines read Parquet from HDFS; we read Parquet from local
  * disk, preserving the mechanism AQP exploits (scan 1-2% of the bytes).
  * Samples are ALSO written to Parquet — as in the paper, where samples are
  * ordinary tables in the underlying database — so exact-vs-AQP latency
  * comparisons are storage-fair.
  */
object BenchData {

  /** Relative to the working directory: generated data is build output. */
  val DefaultDir = "target/bench-data"

  final case class Env(spark: SparkSession, verdict: Verdict, sf: Double,
                       dir: String)

  private def path(dir: String, sf: Double, table: String): String =
    s"$dir/sf${(sf * 1000).toInt}/$table"

  private val tpchTables  = Seq("lineitem", "orders", "customer", "part")
  private val instaTables = Seq("order_items", "insta_orders", "insta_products")

  def generator(spark: SparkSession, table: String, sf: Double): DataFrame = table match {
    case "lineitem"       => SynthData.lineitem(spark, sf)
    case "orders"         => SynthData.orders(spark, sf)
    case "customer"       => SynthData.customer(spark, sf)
    case "part"           => SynthData.part(spark, sf)
    case "order_items"    => InstaData.orderItems(spark, sf)
    case "insta_orders"   => InstaData.instaOrders(spark, sf)
    case "insta_products" => InstaData.instaProducts(spark, sf)
  }

  /** Write (once) and register all base tables at `sf` as Parquet views. */
  def writeAndRegisterBase(spark: SparkSession, sf: Double,
                           dir: String = DefaultDir,
                           tables: Seq[String] = tpchTables ++ instaTables): Unit = {
    for (t <- tables) {
      val p = path(dir, sf, t)
      // written means a Parquet part file, not just a `_SUCCESS` marker
      if (!Option(new File(p).list()).exists(_.exists(f => f.startsWith("part-") && f.endsWith(".parquet"))))
        generator(spark, t, sf).write.mode("overwrite").parquet(p)
      spark.read.parquet(p).createOrReplaceTempView(t)
    }
  }

  /** Re-point the base-table and sample views of `env` at its own Parquet
    * data. Needed because experiments that sweep scale factors (Fig 5)
    * re-register the same view names at other sizes.
    */
  def refreshViews(env: Env): Unit = {
    writeAndRegisterBase(env.spark, env.sf, env.dir)
    env.verdict.catalog.allSamples.foreach { info =>
      env.spark.read.parquet(path(env.dir, env.sf, info.sampleTable))
        .createOrReplaceTempView(info.sampleTable)
    }
  }

  /** Create a sample, persist it to Parquet, and register the Parquet-backed
    * view plus catalog metadata (samples live "in the underlying database").
    */
  def materializeSample(env: Env, baseTable: String, sampleType: SampleType,
                        columns: Seq[String] = Seq.empty,
                        tau: Double): SampleInfo = {
    val spark = env.spark
    val (sdf, info) =
      SampleCreator.create(spark.table(baseTable), baseTable, sampleType, columns, tau)
    val p = path(env.dir, env.sf, info.sampleTable)
    sdf.write.mode("overwrite").parquet(p)
    SampleCreator.release(sdf) // queries read the Parquet copy
    spark.read.parquet(p).createOrReplaceTempView(info.sampleTable)
    env.verdict.catalog.register(info)
    info
  }

  /** Standard bench environment: base tables + the sample suite used by the
    * speedup experiments (uniform and key-hashed samples on the fact and
    * mid-size tables; dimensions are read in full, as in the paper where
    * samples are built for "large fact tables").
    */
  def standardEnv(spark: SparkSession, sf: Double, tau: Double = 0.01,
                  dir: String = DefaultDir): Env = {
    writeAndRegisterBase(spark, sf, dir)
    val verdict = new Verdict(spark, VerdictConfig(budgetFraction = 0.05, tau = tau))
    (tpchTables ++ instaTables).foreach(t => verdict.registerTable(t, spark.table(t)))
    val env = Env(spark, verdict, sf, dir)

    materializeSample(env, "lineitem", SampleType.Uniform, tau = tau)
    materializeSample(env, "lineitem", SampleType.Hashed, Seq("l_orderkey"), tau)
    materializeSample(env, "lineitem", SampleType.Stratified,
      Seq("l_returnflag", "l_linestatus"), tau)
    materializeSample(env, "orders", SampleType.Uniform, tau = tau)
    materializeSample(env, "orders", SampleType.Hashed, Seq("o_orderkey"), tau)
    materializeSample(env, "order_items", SampleType.Uniform, tau = tau)
    materializeSample(env, "order_items", SampleType.Hashed, Seq("oi_order_id"), tau)
    materializeSample(env, "insta_orders", SampleType.Uniform, tau = tau)
    materializeSample(env, "insta_orders", SampleType.Hashed, Seq("io_order_id"), tau)
    env
  }
}
