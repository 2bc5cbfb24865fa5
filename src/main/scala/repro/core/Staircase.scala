package repro.core

import repro.util.Stats

/** Lemma 1 of the paper and the staircase CASE expression built on it.
  *
  * VerdictDB constructs stratified samples with a single Bernoulli pass whose
  * per-stratum sampling probability is a *staircase* function of the stratum
  * size: for a stratum of n tuples, the probability is high enough that at
  * least `m` tuples survive with probability 1-delta. Lemma 1 gives the
  * required probability via the normal approximation of the binomial:
  *
  *   g(p; n) = sqrt(2 n p (1-p)) * erfcInv(2 (1-delta)) + n p   >= m
  *
  * i.e. g(p; n) is the delta-quantile of B(n, p); we invert it in p by
  * bisection (g is monotone increasing in p).
  */
object Staircase {

  /** Failure probability per stratum (paper: delta = 0.001). */
  val Delta: Double = 0.001

  /** Factor by which each staircase bucket's lower size exceeds the last. */
  val Growth: Double = 1.25

  /** g(p; n) of Lemma 1: the delta-lower-quantile of Binomial(n, p) under the
    * normal approximation. erfcInv(2(1-delta)) is negative for delta < 0.5,
    * so g(p;n) = n p - z_{1-delta} sqrt(n p (1-p)).
    */
  def g(p: Double, n: Long): Double =
    math.sqrt(2.0 * n * p * (1 - p)) * Stats.erfcInv(2.0 * (1.0 - Delta)) + n * p

  /** f_m(n) = g^{-1}(m; n): the smallest Bernoulli probability that yields at
    * least `m` successes out of `n` with probability 1-delta. Returns 1.0
    * when no p < 1 satisfies the guarantee (tiny strata are kept whole).
    */
  def fm(m: Long, n: Long): Double = {
    require(m >= 0 && n >= 0, s"negative arguments: m=$m n=$n")
    if (m == 0) return 0.0
    if (m >= n) return 1.0
    if (g(1.0 - 1e-12, n) < m) return 1.0
    var lo = 0.0; var hi = 1.0
    var it = 0
    while (hi - lo > 1e-12 && it < 200) {
      val mid = (lo + hi) / 2
      if (g(mid, n) >= m) hi = mid else lo = mid
      it += 1
    }
    math.min(1.0, hi)
  }

  /** One step of the staircase: strata with size in [loSize, hiSize) use
    * probability `prob` (computed at loSize, which upper-bounds f_m over the
    * bucket since f_m is non-increasing in n).
    */
  final case class Step(loSize: Long, prob: Double)

  /** Build staircase steps for a minimum per-stratum count `m`. Buckets grow
    * geometrically by `Growth` from m up to `maxSize`; strata of size <= m
    * get probability 1 (kept whole).
    */
  def steps(m: Long, maxSize: Long): Seq[Step] = {
    require(m >= 1, s"minimum stratum count must be >= 1: $m")
    val buf = Seq.newBuilder[Step]
    var lo  = m
    while (lo <= maxSize) {
      buf += Step(lo, fm(m, lo))
      lo = math.max(lo + 1, math.ceil(lo * Growth).toLong)
    }
    buf.result()
  }

  /** Render the staircase as a SQL CASE expression over `sizeCol` (the
    * stratum-size column produced by the first pass). Descending thresholds
    * so the first matching WHEN wins, mirroring the paper's
    * `case when strata_size > 2000 then 0.01 ... else 1 end`.
    */
  def caseExpression(sizeCol: String, m: Long, maxSize: Long): String = {
    val ss = steps(m, maxSize)
    if (ss.isEmpty) return "CAST(1.0 AS DOUBLE)"
    val whens = ss.reverse.map(s => s"WHEN $sizeCol >= ${s.loSize} THEN ${s.prob}")
    // the CAST keeps engines from typing the probabilities as DECIMAL
    s"CAST((CASE ${whens.mkString(" ")} ELSE 1.0 END) AS DOUBLE)"
  }
}
