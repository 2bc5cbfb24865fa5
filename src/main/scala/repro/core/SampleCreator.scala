package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.classic.ClassicConversions._
import org.apache.spark.sql.execution.LogicalRDD
import org.apache.spark.sql.functions._

/** Offline sample preparation (Section 3).
  *
  * All three creators are expressible as standard SQL over the base table —
  * the property the paper's middleware depends on: `rand()`, a hash function,
  * and `create table ... as select ...` are the only engine features used.
  * On Spark, `localCheckpoint` stands in for the `create table ... as
  * select ...` that materializes a stratified sample's draw. Each creator
  * returns the sample DataFrame (with the extra `verdict_sampling_prob`
  * column) plus its catalog metadata, whose `sampleRows` counts the rows
  * that DataFrame holds.
  */
object SampleCreator {
  import SampleCatalog.ProbCol

  /** Denominator for mapping Spark's integer murmur3 hash onto [0,1). */
  private val HashBuckets = 1000000L

  /** SQL fragment mapping a column set to a uniform value in [0,1) via the
    * engine's hash function (the paper's h(t.C)).
    */
  def hashUnitExpr(cols: Seq[String]): String =
    s"(pmod(hash(${cols.mkString(", ")}), $HashBuckets) / $HashBuckets.0)"

  /** Uniform (Bernoulli) sample: each tuple kept independently w.p. tau. */
  def uniform(df: DataFrame, baseTable: String, tau: Double,
              seed: Long = 7): (DataFrame, SampleInfo) = {
    require(tau > 0 && tau <= 1, s"tau out of (0,1]: $tau")
    // |T| and |T_s| in one aggregate over the same draw; the draw is
    // projected first, as an aggregate takes no nondeterministic argument
    val counts = df.select((rand(seed) < tau).as("in_sample"))
      .agg(count(lit(1)), count(when(col("in_sample"), 1))).head()
    val s = df.where(rand(seed) < tau).withColumn(ProbCol, lit(tau))
    val info = SampleInfo(baseTable, s"${baseTable}_uniform", SampleType.Uniform,
      Seq.empty, tau, counts.getLong(0), counts.getLong(1))
    (s, info)
  }

  /** Hashed (universe) sample on a column set: kept iff h(t.C) < tau. All
    * inclusion probabilities are recorded as the realized ratio |T_s|/|T|,
    * as in Section 3.1.
    */
  def hashed(df: DataFrame, baseTable: String, cols: Seq[String],
             tau: Double): (DataFrame, SampleInfo) = {
    require(cols.nonEmpty, "hashed sample needs a column set")
    require(tau > 0 && tau <= 1, s"tau out of (0,1]: $tau")
    val inSample      = expr(s"${hashUnitExpr(cols)} < $tau")
    val counts        = df.agg(count(lit(1)), count(when(inSample, 1))).head()
    val (baseRows, n) = (counts.getLong(0), counts.getLong(1))
    val ratio         = if (baseRows == 0) 1.0 else n.toDouble / baseRows
    val s             = df.where(inSample).withColumn(ProbCol, lit(ratio))
    val info = SampleInfo(baseTable,
      s"${baseTable}_hashed_${cols.mkString("_")}", SampleType.Hashed,
      cols, tau, baseRows, n)
    (s, info)
  }

  /** Stratified sample on a column set (Section 3.2): two passes.
    *
    * Pass 1 computes per-stratum sizes; pass 2 Bernoulli-samples with the
    * staircase probability of Lemma 1, guaranteeing (w.p. 1-delta per
    * stratum) at least  m = ceil(|T| * tau / d_C)  tuples per stratum
    * (Equation 1), where d_C is the number of strata.
    *
    * Pass 2 runs once: its rows are materialized (the paper's CTAS), counted
    * from that materialization, and returned. Re-running the plan would not
    * repeat the draw, as `rand(seed)` draws per partition and adaptive
    * execution coalesces a column-pruned count's partitions differently.
    */
  def stratified(df: DataFrame, baseTable: String, cols: Seq[String], tau: Double,
                 seed: Long = 11): (DataFrame, SampleInfo) = {
    require(cols.nonEmpty, "stratified sample needs a column set")
    require(tau > 0 && tau <= 1, s"tau out of (0,1]: $tau")
    val sizes = df.groupBy(cols.map(col): _*)
      .agg(count(lit(1)).as("verdict_strata_size"))
    // |T|, d_C and the largest stratum, in one pass over the strata
    val strata = sizes.agg(sum("verdict_strata_size"), count(lit(1)),
      max("verdict_strata_size")).head()
    val (baseRows, d, maxSize) = (strata.getLong(0), strata.getLong(1), strata.getLong(2))
    val m = math.max(1L, math.ceil(baseRows * tau / d.toDouble).toLong)
    val probSql  = Staircase.caseExpression("verdict_strata_size", m, maxSize)
    val s = df.join(sizes, cols)
      .withColumn(ProbCol, expr(probSql))
      .where(rand(seed) < col(ProbCol))
      .drop("verdict_strata_size")
      .localCheckpoint(eager = true)
    val info = SampleInfo(baseTable,
      s"${baseTable}_stratified_${cols.mkString("_")}", SampleType.Stratified,
      cols, tau, baseRows, s.count())
    (s, info)
  }

  /** Create a sample of any type. `seed` drives a uniform or stratified
    * sample's draw (the creator's default if None).
    */
  def create(df: DataFrame, baseTable: String, sampleType: SampleType,
             columns: Seq[String], tau: Double,
             seed: Option[Long] = None): (DataFrame, SampleInfo) =
    sampleType match {
      case SampleType.Uniform    =>
        seed.fold(uniform(df, baseTable, tau))(uniform(df, baseTable, tau, _))
      case SampleType.Hashed     => hashed(df, baseTable, columns, tau)
      case SampleType.Stratified =>
        seed.fold(stratified(df, baseTable, columns, tau))(
          stratified(df, baseTable, columns, tau, _))
    }

  /** Materialize a sample as a cached temp view and register its metadata.
    * A sample its creator has already materialized is not cached again.
    * Returns the materialized sample DataFrame.
    */
  def registerSample(spark: SparkSession, catalog: SampleCatalog,
                     sample: DataFrame, info: SampleInfo): DataFrame = {
    val s = sample.queryExecution.logical match {
      case _: LogicalRDD => sample
      case _             => sample.cache()
    }
    s.createOrReplaceTempView(info.sampleTable)
    catalog.register(info)
    s
  }

  /** Drop the in-memory copy of a sample its caller has written elsewhere:
    * a stratified sample's materialized draw, or a cache. The DataFrame is
    * not to be read afterwards.
    */
  def release(sample: DataFrame): Unit = sample.queryExecution.logical match {
    case draw: LogicalRDD => draw.rdd.unpersist()
    case _                => sample.unpersist()
  }
}
