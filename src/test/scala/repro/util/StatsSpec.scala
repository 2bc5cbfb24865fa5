package repro.util

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

class StatsSpec extends AnyFunSuite {

  test("erfc at reference points, within its documented 1.2e-7 relative error") {
    for ((x, ref) <- Seq(-1.0 -> 1.8427007929, 0.0 -> 1.0, 0.5 -> 0.4795001222,
                         1.0 -> 0.1572992071, 2.0 -> 0.0046777350, 3.0 -> 2.2090497e-5))
      assert(math.abs(Stats.erfc(x) - ref) <= 1.2e-7 * ref, s"x=$x: ${Stats.erfc(x)}")
  }

  test("normalCdf at reference points") {
    assert(math.abs(Stats.normalCdf(0.0) - 0.5) < 1e-9)
    assert(math.abs(Stats.normalCdf(1.959963985) - 0.975) < 1e-6)
    assert(math.abs(Stats.normalCdf(-1.959963985) - 0.025) < 1e-6)
    assert(math.abs(Stats.normalCdf(3.090232306) - 0.999) < 1e-6)
  }

  test("normalQuantile inverts normalCdf") {
    for (p <- Seq(0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999))
      assert(math.abs(Stats.normalCdf(Stats.normalQuantile(p)) - p) < 1e-8, s"p=$p")
  }

  test("normalQuantile reference values") {
    assert(math.abs(Stats.normalQuantile(0.975) - 1.959964) < 1e-5)
    assert(math.abs(Stats.normalQuantile(0.999) - 3.090232) < 1e-5)
    assert(math.abs(Stats.normalQuantile(0.5)) < 1e-9)
  }

  test("normalQuantile rejects out-of-range probabilities") {
    intercept[IllegalArgumentException](Stats.normalQuantile(0.0))
    intercept[IllegalArgumentException](Stats.normalQuantile(1.0))
  }

  test("erfcInv inverts erfc across its domain") {
    for (y <- Seq(0.002, 0.1, 0.5, 1.0, 1.5, 1.95, 1.998))
      assert(math.abs(Stats.erfc(Stats.erfcInv(y)) - y) < 1e-7, s"y=$y")
  }

  test("erfcInv of 1 is 0; symmetry erfcInv(2-y) = -erfcInv(y)") {
    assert(math.abs(Stats.erfcInv(1.0)) < 1e-9)
    for (y <- Seq(0.01, 0.2, 0.7))
      assert(math.abs(Stats.erfcInv(2 - y) + Stats.erfcInv(y)) < 1e-8)
  }

  test("binomialCdf agrees with direct summation") {
    def direct(k: Int, n: Int, p: Double): Double =
      (0 to k).map { i =>
        val c = (1 to i).map(j => (n - j + 1).toDouble / j).product
        c * math.pow(p, i) * math.pow(1 - p, n - i)
      }.sum
    for ((k, n, p) <- Seq((3, 10, 0.3), (0, 5, 0.5), (7, 20, 0.1), (15, 20, 0.9)))
      assert(math.abs(Stats.binomialCdf(k, n, p) - direct(k, n, p)) < 1e-9,
        s"($k,$n,$p)")
  }

  test("binomialCdf boundary cases") {
    assert(Stats.binomialCdf(-1, 10, 0.5) == 0.0)
    assert(Stats.binomialCdf(10, 10, 0.5) == 1.0)
    assert(Stats.binomialCdf(5, 10, 0.0) == 1.0)
    assert(Stats.binomialCdf(5, 10, 1.0) == 0.0)
  }

  test("binomialCdf is monotone in k (randomized property)") {
    val rng = new Random(1)
    for (_ <- 1 to 50) {
      val n = 1 + rng.nextInt(50)
      val p = 0.05 + rng.nextDouble() * 0.9
      val cdf = (0 until n).map(Stats.binomialCdf(_, n, p))
      assert(cdf.sliding(2).forall {
        case Seq(a, b) => b >= a - 1e-12
        case _         => true
      }, s"n=$n p=$p")
    }
  }

  test("mean / variance / stddev basics") {
    assert(Stats.mean(Seq(1.0, 2.0, 3.0)) == 2.0)
    assert(math.abs(Stats.variance(Seq(2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0)) - 32.0 / 7) < 1e-12)
    assert(Stats.variance(Seq(5.0)) == 0.0)
    assert(math.abs(Stats.stddev(Seq(1.0, 3.0)) - math.sqrt(2.0)) < 1e-12)
  }

  test("quantile endpoints and interpolation") {
    val xs = Seq(1.0, 2.0, 3.0, 4.0)
    assert(Stats.quantile(xs, 0.0) == 1.0)
    assert(Stats.quantile(xs, 1.0) == 4.0)
    assert(Stats.quantile(xs, 0.5) == 2.5)
    assert(Stats.quantile(Seq(7.0), 0.3) == 7.0)
  }

  test("quantile is monotone in q (randomized property)") {
    val rng = new Random(2)
    for (_ <- 1 to 50) {
      val xs = Seq.fill(1 + rng.nextInt(40))(rng.nextDouble() * 200 - 100)
      val q1 = Stats.quantile(xs, 0.25); val q2 = Stats.quantile(xs, 0.75)
      assert(q2 >= q1 - 1e-12)
    }
  }

  test("quantile rejects invalid input") {
    intercept[IllegalArgumentException](Stats.quantile(Seq.empty, 0.5))
    intercept[IllegalArgumentException](Stats.quantile(Seq(1.0), 1.5))
  }
}
