package repro.core

import org.scalatest.funsuite.AnyFunSuite

import repro.util.Stats

import scala.util.Random

class StaircaseSpec extends AnyFunSuite {

  test("g(p; n) is the delta-lower-quantile of the binomial (normal approx)") {
    // at delta=0.001, g(p;n) ~ np - 3.09 sqrt(np(1-p))
    val z = Stats.normalQuantile(0.999)
    for ((p, n) <- Seq((0.1, 1000L), (0.5, 400L), (0.02, 50000L))) {
      val expected = n * p - z * math.sqrt(n * p * (1 - p))
      assert(math.abs(Staircase.g(p, n) - expected) < 1e-6 * n, s"p=$p n=$n")
    }
  }

  test("g is monotone increasing in p") {
    val ps = (1 to 99).map(_ / 100.0)
    val gs = ps.map(Staircase.g(_, 10000L))
    assert(gs.sliding(2).forall { case Seq(a, b) => b > a; case _ => true })
  }

  test("fm boundary cases") {
    assert(Staircase.fm(0, 100) == 0.0)
    assert(Staircase.fm(100, 100) == 1.0)
    assert(Staircase.fm(200, 100) == 1.0)
  }

  test("fm satisfies the guarantee: g(fm(m,n); n) >= m") {
    for ((m, n) <- Seq((10L, 100L), (10L, 1000L), (100L, 100000L), (5L, 20L)))
      assert(Staircase.g(Staircase.fm(m, n), n) >= m - 1e-6, s"m=$m n=$n")
  }

  test("fm is non-increasing in n") {
    val m = 50L
    val ps = Seq(60L, 100L, 300L, 1000L, 10000L, 100000L).map(Staircase.fm(m, _))
    assert(ps.sliding(2).forall { case Seq(a, b) => b <= a + 1e-12; case _ => true },
      ps.toString)
  }

  test("fm exceeds the naive ratio m/n (the paper's motivating example)") {
    // Bernoulli with p = m/n under-delivers ~half the time; fm must be larger
    for ((m, n) <- Seq((10L, 100L), (100L, 10000L)))
      assert(Staircase.fm(m, n) > m.toDouble / n, s"m=$m n=$n")
  }

  test("paper's example: p=0.1 yields <10 of 100 with probability ~0.45") {
    val p = Stats.binomialCdf(9, 100, 0.1)
    assert(math.abs(p - 0.45) < 0.02, s"got $p")
  }

  test("fm-based sampling hits the minimum with probability >= 1-delta (exact binomial)") {
    for ((m, n) <- Seq((10L, 100L), (20L, 500L), (50L, 5000L))) {
      val p = Staircase.fm(m, n)
      // P(X >= m) = 1 - P(X <= m-1)
      val hit = 1 - Stats.binomialCdf(m.toInt - 1, n.toInt, p)
      // allow slack for the normal approximation at small n
      assert(hit >= 0.997, s"m=$m n=$n p=$p hit=$hit")
    }
  }

  test("fm-based sampling empirically delivers >= m (Monte Carlo)") {
    val rng = new Random(7)
    val (m, n) = (10, 200)
    val p = Staircase.fm(m, n)
    val failures = (1 to 2000).count { _ =>
      (1 to n).count(_ => rng.nextDouble() < p) < m
    }
    assert(failures <= 10, s"failures=$failures of 2000 at delta=0.001")
  }

  test("steps cover [m, maxSize] with non-increasing probabilities") {
    val ss = Staircase.steps(100, 100000)
    assert(ss.head.loSize == 100)
    assert(ss.last.loSize <= 100000)
    assert(ss.map(_.prob).sliding(2).forall {
      case Seq(a, b) => b <= a + 1e-12
      case _         => true
    })
    // every step's probability upper-bounds fm over its bucket
    ss.sliding(2).foreach {
      case Seq(a, b) =>
        assert(a.prob >= Staircase.fm(100, b.loSize - 1) - 1e-9)
      case _ =>
    }
  }

  test("steps rejects invalid arguments") {
    intercept[IllegalArgumentException](Staircase.steps(0, 100))
  }

  test("caseExpression renders descending thresholds ending in ELSE 1.0") {
    val sql = Staircase.caseExpression("sz", 10, 10000)
    assert(sql.startsWith("CAST((CASE WHEN"))
    assert(sql.endsWith("ELSE 1.0 END) AS DOUBLE)"))
    // first WHEN must be the largest threshold
    val firstThreshold = "WHEN sz >= (\\d+)".r.findFirstMatchIn(sql).get.group(1).toLong
    assert(firstThreshold > 10)
  }

  test("caseExpression for tiny tables degenerates to probability 1") {
    assert(Staircase.caseExpression("sz", 10, 5) == "CAST(1.0 AS DOUBLE)")
  }
}
