package repro.baselines

import org.apache.spark.sql.SparkSession

import repro.core.Verdict.Confidence
import repro.util.Stats

/** The O(b*n) error-estimation baselines expressed in SQL: traditional
  * subsampling (Section 4.1, Query 1) and the consolidated bootstrap (the
  * state-of-the-art baseline of Section 6.4, after Agarwal et al. [10]).
  *
  * Both are one mechanism. Every sample tuple is paired with each of b
  * resample ids, each pair carries a multiplicity, the aggregate is computed
  * per resample id with the multiplicities as weights, and a confidence
  * interval is read off the deviations of the per-resample estimates from
  * the full-sample one. Construction therefore costs O(b*n). (The paper's
  * Query 1 aggregates via b `sum(case when sid=j ...)` columns; we aggregate
  * by `GROUP BY rid`, which has identical asymptotics but does not stress
  * the engine's codegen with thousands of projections.)
  */
object Resampling {

  /** An estimate with its standard error and confidence interval, read off
    * `b` resample estimates (0 for a closed form). */
  final case class Result(estimate: Double, stderr: Double,
                          ciLo: Double, ciHi: Double, b: Int)

  /** How the resamples are drawn from an n-row sample. */
  sealed trait Method

  /** Traditional subsampling: each resample is an (approximately) ns-sized
    * simple random sample of the n-row sample, and a tuple may belong to
    * several of them. */
  final case class Subsampling(n: Long, ns: Long) extends Method

  /** Consolidated bootstrap: instead of resampling with replacement, each
    * (tuple, resample) pair receives a Poisson(1) multiplicity. */
  case object Bootstrap extends Method

  /** Poisson(1) via inverse CDF on a uniform variate (truncated at 6). */
  def poissonCase(uniformSql: String): String = {
    // CDF of Poisson(1): 0.3679, 0.7358, 0.9197, 0.9810, 0.9963, 0.9994, 1
    s"""(CASE WHEN $uniformSql < 0.367879 THEN 0
       | WHEN $uniformSql < 0.735759 THEN 1
       | WHEN $uniformSql < 0.919699 THEN 2
       | WHEN $uniformSql < 0.981012 THEN 3
       | WHEN $uniformSql < 0.996340 THEN 4
       | WHEN $uniformSql < 0.999406 THEN 5
       | ELSE 6 END)""".stripMargin.replaceAll("\n", " ")
  }

  /** The resampled relation of `view`: its tuples paired with each resample
    * id `rid` in [1, b], with multiplicity `mult`. Subsampling keeps a pair
    * with probability ns/n, once: the paper's `orders_subsamples`. The
    * bootstrap keeps every pair; its uniform draw is materialized first
    * (engines refuse nondeterministic expressions inside aggregates, and a
    * CASE directly over rand() would re-draw per branch), then the
    * inverse-CDF CASE maps it to the multiplicity.
    */
  def relation(view: String, b: Int, method: Method): String = {
    val pairs = s"FROM $view s CROSS JOIN range(1, ${b + 1}) ids"
    method match {
      case Subsampling(n, ns) =>
        s"SELECT s.*, ids.id AS rid, 1 AS mult $pairs WHERE rand(17) < ${ns.toDouble / n}"
      case Bootstrap =>
        s"SELECT u.*, ${poissonCase("bs_u")} AS mult FROM " +
          s"(SELECT ids.id AS rid, s.*, rand(23) AS bs_u $pairs) u"
    }
  }

  /** SQL aggregate of `kind` ("sum" | "avg") over the value `valueExpr`,
    * each row weighted by `weight`. An HT count is the sum of
    * `1.0 / verdict_sampling_prob`. */
  def aggregate(kind: String, valueExpr: String, weight: String): String = kind match {
    case "sum"   => s"sum(($valueExpr) * $weight)"
    case "avg"   => s"(sum(($valueExpr) * $weight) / sum($weight))"
    case other   => throw new IllegalArgumentException(s"unsupported kind: $other")
  }

  /** Estimate an aggregate over the sample view with resampling error
    * bounds. A subsample aggregates about ns of the n rows, so its sums are
    * scaled by n/ns to the full sample's magnitude.
    *
    * @param valueExpr SQL value, already HT-weighted by the caller if needed
    */
  def estimate(spark: SparkSession, view: String, kind: String,
               valueExpr: String, where: Option[String], b: Int,
               method: Method): Result = {
    val w = where.map(x => s" WHERE $x").getOrElse("")
    val perResample = spark.sql(
      s"SELECT rid, ${aggregate(kind, valueExpr, "mult")} AS est " +
        s"FROM (${relation(view, b, method)}) t$w GROUP BY rid").collect()
    val full = spark.sql(
      s"SELECT ${aggregate(kind, valueExpr, "1")} AS est FROM $view t$w")
      .head().getAs[Any]("est").toString.toDouble
    val size = method match {
      case Subsampling(n, ns) if kind != "avg" => n.toDouble / ns
      case _                                   => 1.0
    }
    val ests = perResample.map(_.getAs[Any]("est").toString.toDouble * size).toSeq
    interval(full, method match {
      case Bootstrap          => ests.map(full - _)
      case Subsampling(n, ns) => ests.map(deviation(full, ns.toDouble, n.toDouble))
    })
  }

  /** The deviation of an estimate `e` over ns rows from the estimate `full`
    * over n rows, scaled to the spread of `full`: sqrt(ns/n) (e - full). */
  def deviation(full: Double, ns: Double, n: Double)(e: Double): Double =
    math.sqrt(ns / n) * (e - full)

  /** The one CI rule: given the deviations `devs` of the resample estimates
    * from `full`, each scaled to the spread of `full`, the interval is
    * [full - q(1 - alpha/2), full - q(alpha/2)] over their empirical
    * quantiles q, with alpha = 1 - `Confidence`, and the standard error is
    * their standard deviation.
    */
  def interval(full: Double, devs: Seq[Double]): Result = {
    val alpha = 1 - Confidence
    Result(full, Stats.stddev(devs),
      full - Stats.quantile(devs, 1 - alpha / 2),
      full - Stats.quantile(devs, alpha / 2),
      devs.size)
  }
}
