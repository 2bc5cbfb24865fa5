package repro.baselines

import scala.util.Random

import repro.baselines.Resampling.{Result, deviation, interval}
import repro.core.Verdict.Z
import repro.util.Stats

/** Classical bootstrap and traditional subsampling computed driver-side over
  * an in-memory array. Used only by the statistical-correctness experiments
  * (Figures 8b, 12–14), where the question is the *quality* of the error
  * estimate, not where it is computed. Each reads its CI off deviations by
  * `Resampling.interval`, as the SQL baselines do.
  */
object DriverBootstrap {

  /** Percentile-bootstrap CI for the mean of xs. */
  def bootstrapMean(xs: Array[Double], b: Int, seed: Long = 31): Result = {
    val rng  = new Random(seed)
    val n    = xs.length
    val full = xs.sum / n
    val ests = Array.fill(b) {
      var s = 0.0; var i = 0
      while (i < n) { s += xs(rng.nextInt(n)); i += 1 }
      s / n
    }
    interval(full, ests.map(full - _).toSeq)
  }

  /** Traditional-subsampling CI for the mean: b subsamples of size ns drawn
    * without replacement, deviations scaled by sqrt(ns/n).
    */
  def subsamplingMean(xs: Array[Double], ns: Int, b: Int, seed: Long = 37): Result = {
    val rng  = new Random(seed)
    val n    = xs.length
    val full = xs.sum / n
    // one index array reused across subsamples: a partial Fisher–Yates of an
    // already-permuted array still yields a uniform ns-subset, and re-
    // initializing n entries per subsample would cost O(b*n) allocations
    val idx = new Array[Int](n)
    var k = 0
    while (k < n) { idx(k) = k; k += 1 }
    val ests = Array.fill(b) {
      var s = 0.0; var i = 0
      while (i < ns) {
        val j = i + rng.nextInt(n - i)
        val t = idx(i); idx(i) = idx(j); idx(j) = t
        s += xs(idx(i)); i += 1
      }
      s / ns
    }
    interval(full, ests.map(deviation(full, ns.toDouble, n.toDouble)).toSeq)
  }

  /** Variational-subsampling CI for the mean, driver-side reference
    * implementation of Section 4.2: each element assigned to exactly one of
    * b subsamples; deviations scaled by sqrt(n_s,i / n); empirical quantiles
    * give the CI (Equation 2).
    */
  def variationalMean(xs: Array[Double], b: Int, seed: Long = 41): Result = {
    val rng  = new Random(seed)
    val n    = xs.length
    val full = xs.sum / n
    val sums   = new Array[Double](b)
    val counts = new Array[Int](b)
    var i = 0
    while (i < n) {
      val s = rng.nextInt(b)
      sums(s) += xs(i); counts(s) += 1
      i += 1
    }
    val devs = (0 until b).filter(counts(_) > 0).map { j =>
      deviation(full, counts(j).toDouble, n.toDouble)(sums(j) / counts(j))
    }
    interval(full, devs)
  }

  /** CLT CI for the mean (reference in Figure 8b), a closed form: b = 0. */
  def cltMean(xs: Array[Double]): Result = {
    val n    = xs.length
    val m    = xs.sum / n
    val sd   = Stats.stddev(xs.toSeq)
    Result(m, sd / math.sqrt(n.toDouble),
      m - Z * sd / math.sqrt(n.toDouble), m + Z * sd / math.sqrt(n.toDouble), 0)
  }
}
