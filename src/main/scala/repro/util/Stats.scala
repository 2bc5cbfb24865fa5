package repro.util

/** Numerical statistics substrate used across the reproduction.
  *
  * Provides the complementary error function and its inverse (erfc /
  * erfcInv), normal quantiles (Acklam's rational approximation), and
  * binomial helpers. Lemma 1 of the paper (the staircase sampling
  * probability) is built on `erfcInv`; the CLT baseline (Section 6.5) uses
  * `normalQuantile`.
  */
object Stats {

  /** Inverse standard-normal CDF via Acklam's algorithm (|rel err| < 1.15e-9),
    * refined with one Halley step against the high-accuracy CDF.
    */
  def normalQuantile(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"quantile probability out of (0,1): $p")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02,
      -2.759285104469687e+02, 1.383577518672690e+02,
      -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02,
      -1.556989798598866e+02, 6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01,
      -2.400758277161838e+00, -2.549732539343734e+00,
      4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01,
      2.445134137142996e+00, 3.754408661907416e+00)
    val pLow = 0.02425
    val x =
      if (p < pLow) {
        val q = math.sqrt(-2 * math.log(p))
        (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
          ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
      } else if (p <= 1 - pLow) {
        val q = p - 0.5; val r = q * q
        (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
          (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
      } else {
        val q = math.sqrt(-2 * math.log(1 - p))
        -(((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
          ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
      }
    // One Halley refinement using the accurate CDF below.
    val e = normalCdf(x) - p
    val u = e * math.sqrt(2 * math.Pi) * math.exp(x * x / 2.0)
    x - u / (1 + x * u / 2)
  }

  /** Standard normal CDF (via erfc for double-precision tails). */
  def normalCdf(x: Double): Double = 0.5 * erfc(-x / math.sqrt(2.0))

  /** Complementary error function erfc(x) = 1 - erf(x), via the
    * continued-fraction/series split (Numerical Recipes `erfc` rational
    * Chebyshev fit, |rel err| < 1.2e-7 improved by symmetry; adequate for
    * CDF work far into the tails).
    */
  def erfc(x: Double): Double = {
    val z = math.abs(x)
    val t = 2.0 / (2.0 + z)
    val ty = 4.0 * t - 2.0
    val cof = Array(-1.3026537197817094, 6.4196979235649026e-1,
      1.9476473204185836e-2, -9.561514786808631e-3, -9.46595344482036e-4,
      3.66839497852761e-4, 4.2523324806907e-5, -2.0278578112534e-5,
      -1.624290004647e-6, 1.303655835580e-6, 1.5626441722e-8,
      -8.5238095915e-8, 6.529054439e-9, 5.059343495e-9, -9.91364156e-10,
      -2.27365122e-10, 9.6467911e-11, 2.394038e-12, -6.886027e-12,
      8.94487e-13, 3.13092e-13, -1.12708e-13, 3.81e-16, 7.106e-15)
    var d = 0.0; var dd = 0.0
    var j = cof.length - 1
    while (j > 0) { val tmp = d; d = ty * d - dd + cof(j); dd = tmp; j -= 1 }
    val ans = t * math.exp(-z * z + 0.5 * (cof(0) + ty * d) - dd)
    if (x >= 0) ans else 2.0 - ans
  }

  /** Inverse complementary error function: erfcInv(y) = z s.t. erfc(z) = y.
    * Derived from the inverse normal CDF: erfc(z) = 2*Phi(-sqrt(2) z).
    */
  def erfcInv(y: Double): Double = {
    require(y > 0.0 && y < 2.0, s"erfcInv domain is (0,2): $y")
    -normalQuantile(y / 2.0) / math.sqrt(2.0)
  }

  /** Exact binomial CDF P(X <= k) for X ~ B(n, p); O(k) via the recurrence
    * on the pmf in log space. Used only in tests (small n) to validate the
    * normal approximation used by Lemma 1.
    */
  def binomialCdf(k: Int, n: Int, p: Double): Double = {
    if (k < 0) return 0.0
    if (k >= n) return 1.0
    if (p <= 0.0) return 1.0
    if (p >= 1.0) return 0.0
    var logPmf = n * math.log1p(-p) // P(X=0)
    var acc    = math.exp(logPmf)
    var i      = 0
    while (i < k) {
      logPmf += math.log((n - i).toDouble / (i + 1)) + math.log(p) - math.log1p(-p)
      acc += math.exp(logPmf)
      i += 1
    }
    math.min(1.0, acc)
  }

  /** Sample mean. */
  def mean(xs: Seq[Double]): Double = xs.sum / xs.size

  /** Unbiased (n-1) sample variance; 0 for singletons. */
  def variance(xs: Seq[Double]): Double = {
    if (xs.size < 2) return 0.0
    val m = mean(xs)
    xs.map(x => (x - m) * (x - m)).sum / (xs.size - 1)
  }

  /** Sample standard deviation (n-1). */
  def stddev(xs: Seq[Double]): Double = math.sqrt(variance(xs))

  /** Empirical quantile with linear interpolation (type 7, like numpy). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of empty sequence")
    require(q >= 0.0 && q <= 1.0, s"quantile prob out of [0,1]: $q")
    val s = xs.sorted
    val h = (s.size - 1) * q
    val lo = h.toInt
    val hi = math.min(lo + 1, s.size - 1)
    s(lo) + (h - lo) * (s(hi) - s(lo))
  }
}
