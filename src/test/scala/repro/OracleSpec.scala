package repro

/** Self-test of the DuckDB oracle plumbing. */
class OracleSpec extends SparkSpec {

  test("oracle accepts an equivalent query") {
    import spark.implicits._
    val df = Seq(("a", 1.0), ("a", 2.0), ("b", 3.0)).toDF("g", "x")
    val got = spark.sql("SELECT g, sum(x) AS s FROM VALUES ('a', 1.0), ('a', 2.0), " +
      "('b', 3.0) AS t(g, x) GROUP BY g")
    Oracle.assertEquivalent(got, "SELECT g, sum(x::DOUBLE) AS s FROM t GROUP BY g",
      "t" -> df)
  }

  test("oracle rejects a wrong result") {
    import spark.implicits._
    val df = Seq(("a", 1.0), ("b", 3.0)).toDF("g", "x")
    val wrong = spark.sql("SELECT 'a' AS g, 99.0 AS s")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT g, sum(x::DOUBLE) AS s FROM t GROUP BY g",
        "t" -> df)
    }
  }

  test("oracle rejects mismatched column sets") {
    import spark.implicits._
    val df = Seq(("a", 1.0)).toDF("g", "x")
    val got = spark.sql("SELECT 'a' AS wrongname")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, "SELECT g FROM t", "t" -> df)
    }
  }

  test("oracle handles NULLs canonically") {
    import spark.implicits._
    val df = Seq(("a", Some(1.0)), ("b", None)).toDF("g", "x")
    val got = spark.sql(
      "SELECT g, x FROM VALUES ('a', 1.0), ('b', CAST(NULL AS DOUBLE)) AS t(g, x)")
    Oracle.assertEquivalent(got, "SELECT g, x::DOUBLE AS x FROM t", "t" -> df)
  }

  test("oracle rejects a 1e-9 relative discrepancy") {
    import spark.implicits._
    val df  = Seq(("a", 1e9)).toDF("g", "x")
    val got = Seq(("a", 1e9 + 1)).toDF("g", "x")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, "SELECT g, x::DOUBLE AS x FROM t", "t" -> df)
    }
  }

  test("oracle accepts a double sum added in another order") {
    import spark.implicits._
    // the two orders differ in the last bit, and their 6-decimal renderings
    // differ too
    val (a, b, c) = (12345.6789015, 0.9238548, 0.8965672)
    assert((a + b) + c != a + (b + c))
    assert(f"${(a + b) + c}%.6f" != f"${a + (b + c)}%.6f")
    val df = Seq((a, b, c)).toDF("a", "b", "c")
    Oracle.assertEquivalent(df.selectExpr("(a + b) + c AS s"),
      "SELECT a::DOUBLE + (b::DOUBLE + c::DOUBLE) AS s FROM t", "t" -> df)
  }

  test("oracle pairs rows by their exact cells, not by near-equal doubles") {
    import spark.implicits._
    // the double column sorts first by name, and the engines' values differ
    // in the last bit in opposite directions
    val (lo, hi) = (1.0, 1.0000000000000002)
    val df  = Seq(("x", hi), ("y", lo)).toDF("k", "a")
    val got = Seq(("x", lo), ("y", hi)).toDF("k", "a")
    Oracle.assertEquivalent(got, "SELECT k, a::DOUBLE AS a FROM t", "t" -> df)
  }
}
