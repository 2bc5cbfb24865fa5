package repro.core

import repro.SparkSpec
import repro.core.VariationalSubsampling._

import scala.util.Random

class VariationalSubsamplingSpec extends SparkSpec {

  test("numSubsamples is a perfect square near sqrt(n), at least 4") {
    for (n <- Seq(1L, 10L, 100L, 10000L, 1000000L, 100000000L)) {
      val b = numSubsamples(n)
      val r = math.round(math.sqrt(b.toDouble)).toInt
      assert(r * r == b, s"n=$n b=$b")
      assert(b >= 4)
      if (n >= 16) assert(b <= math.sqrt(n.toDouble) + 1, s"n=$n b=$b")
    }
  }

  test("numSubsamplesFor honours an explicit n_s") {
    val b = numSubsamplesFor(10000L, 10.0) // n/ns = 1000 -> 31^2 = 961
    assert(b == 961)
    assert(numSubsamplesFor(100L, 50.0) == 4)
  }

  test("numSubsamples is numSubsamplesFor at n_s = sqrt(n): sqrt(n) down to a perfect square") {
    def direct(n: Long): Int = {
      val raw  = math.max(4.0, math.sqrt(math.max(1L, n).toDouble))
      val root = math.max(2, math.floor(math.sqrt(raw)).toInt)
      root * root
    }
    // n near k^4 is where b = sqrt(n) sits on a perfect square
    val nearFourthPowers = (1L until 400L).flatMap { k =>
      val k4 = k * k * k * k; Seq(k4 - 1, k4, k4 + 1)
    }
    val bad = ((0L until 3000000L).iterator ++ nearFourthPowers).find(n => numSubsamples(n) != direct(n))
    assert(bad.isEmpty, s"n=${bad.getOrElse(-1L)}")
  }

  test("h partitions I x J into b blocks of exactly b pairs each (Theorem 4)") {
    for (b <- Seq(4, 9, 16, 100)) {
      val counts = (for { i <- 1 to b; j <- 1 to b } yield h(i, j, b))
        .groupBy(identity).view.mapValues(_.size).toMap
      assert(counts.keySet == (1 to b).toSet, s"b=$b: range not covered")
      assert(counts.values.forall(_ == b), s"b=$b: blocks are not uniform")
    }
  }

  test("h is the row-major block index (paper's example)") {
    // b=4, sqrt(b)=2: (1,1)->1 (1,2)->1 (1,3)->2 (3,1)->3 (3,3)->4
    assert(h(1, 1, 4) == 1)
    assert(h(1, 2, 4) == 1)
    assert(h(1, 3, 4) == 2)
    assert(h(3, 1, 4) == 3)
    assert(h(3, 3, 4) == 4)
  }

  test("h rejects non-square b") {
    intercept[IllegalArgumentException](h(1, 1, 5))
    intercept[IllegalArgumentException](hExpr("a", "b", 8))
  }

  test("h block structure: pairs in a block share sqrt(b)-ranges (property)") {
    val rng = new Random(3)
    val b = 25; val r = 5
    for (_ <- 1 to 200) {
      val i = 1 + rng.nextInt(b); val j = 1 + rng.nextInt(b)
      val k = h(i, j, b)
      assert(k == ((i - 1) / r) * r + ((j - 1) / r) + 1)
      assert(k >= 1 && k <= b)
    }
  }

  test("hExpr evaluates identically to h in SQL") {
    val b = 16
    val df = spark.sql(
      s"""SELECT i.id AS i, j.id AS j, ${hExpr("i.id", "j.id", b)} AS k
         |FROM range(1, ${b + 1}) i CROSS JOIN range(1, ${b + 1}) j""".stripMargin)
    df.collect().foreach { row =>
      val (i, j, k) = (row.getLong(0).toInt, row.getLong(1).toInt, row.getInt(2))
      assert(k == h(i, j, b), s"($i,$j)")
    }
  }

  test("sidExpr assigns every tuple a sid in [1, b] roughly uniformly") {
    val b = 25
    val counts = spark.sql(
      s"SELECT ${sidExpr(b, 11)} AS sid FROM range(100000)")
      .groupBy("sid").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    assert(counts.keySet == (1 to b).toSet)
    val expected = 100000.0 / b
    counts.values.foreach(c =>
      assert(math.abs(c - expected) < 6 * math.sqrt(expected), s"count=$c"))
  }

  test("errSql divides the per-sid stddev by sqrt(#sids)") {
    // the NULL-sid row (a pooled group row) is no subsample and is not counted
    val v = spark.sql(
      s"SELECT ${errSql("CASE WHEN sid IS NOT NULL THEN e END", "sid")} AS s " +
        "FROM VALUES (1, 2.0D), (2, 4.0D), (3, 6.0D), (4, 8.0D), (NULL, 100.0D) AS t(sid, e)")
      .head().getDouble(0)
    assert(math.abs(v - math.sqrt(20.0 / 3) / 2) < 1e-12)
  }
}
