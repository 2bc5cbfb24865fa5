package repro.core

import repro.{Oracle, SparkSpec}
import repro.core.SamplePlanner.{PlanBlock, TableChoice, UseBase, UseSample}

/** The AQP rewriter (Sections 4–5, Appendix G).
  *
  * Exactness: at tau=1 every Horvitz–Thompson weight is 1, so point
  * estimates must equal exact answers (checked against DuckDB).
  * Statistics: at tau=0.1 estimates must be close and error columns must be
  * sane (positive, of the right magnitude).
  */
class RewriterSpec extends SparkSpec {

  private lazy val vExact   = TestData.verdictExact
  private lazy val vSampled = TestData.verdictSampled

  private def approx(v: Verdict, sql: String): VerdictResult = {
    val r = v.sql(sql)
    assert(r.approximate, s"expected AQP for: $sql — ${r.notes}")
    r
  }

  // ------------------------------------------------------- tau=1 exactness --

  test("count(*) per group is exact at tau=1") {
    val r = approx(vExact,
      "SELECT l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag")
    Oracle.assertEquivalent(r.df.select("l_returnflag", "c"),
      "SELECT l_returnflag, count(*)::DOUBLE AS c FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> TestData.li)
  }

  test("count(column) counts non-nulls at tau=1") {
    val r = approx(vExact, "SELECT count(l_partkey) AS c FROM lineitem")
    Oracle.assertEquivalent(r.df.select("c"),
      "SELECT count(l_partkey)::DOUBLE AS c FROM lineitem",
      "lineitem" -> TestData.li)
  }

  test("sum over an expression is exact at tau=1 (relative tolerance)") {
    // large sums differ in the last few ulps across addition orders, so the
    // comparison is relative rather than the oracle's fixed-decimal diff
    val q = "SELECT l_linestatus, sum(l_extendedprice * (1 - l_discount)) AS s " +
      "FROM lineitem GROUP BY l_linestatus"
    val r = approx(vExact, q)
    val exact = spark.sql(q).collect().map(x => x.getString(0) -> x.getDouble(1)).toMap
    r.df.collect().foreach { row =>
      val e = exact(row.getString(0))
      assert(math.abs(row.getAs[Double]("s") - e) / e < 1e-9)
    }
  }

  test("avg is exact at tau=1") {
    val r = approx(vExact,
      "SELECT l_returnflag, avg(l_quantity) AS a FROM lineitem GROUP BY l_returnflag")
    Oracle.assertEquivalent(r.df.select("l_returnflag", "a"),
      "SELECT l_returnflag, avg(l_quantity::DOUBLE) AS a FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> TestData.li)
  }

  test("variance and stddev match the population moments at tau=1") {
    val r = approx(vExact,
      "SELECT variance(l_quantity) AS v, stddev(l_quantity) AS s FROM lineitem")
    val row = r.df.head()
    val exact = spark.sql(
      "SELECT var_pop(l_quantity) AS v, stddev_pop(l_quantity) AS s FROM lineitem").head()
    // the HT moment estimator is the population variance
    assert(math.abs(row.getAs[Double]("v") - exact.getAs[Double]("v")) < 1e-6)
    assert(math.abs(row.getAs[Double]("s") - exact.getAs[Double]("s")) < 1e-6)
  }

  test("count-distinct via hashed sample is exact at tau=1") {
    val r = approx(vExact, "SELECT count(distinct l_orderkey) AS cd FROM lineitem")
    val exact = spark.sql("SELECT count(distinct l_orderkey) AS cd FROM lineitem")
      .head().getLong(0)
    assert(math.abs(r.df.head().getAs[Double]("cd") - exact) < 1e-6)
  }

  test("arithmetic over aggregates (tq14 shape) is exact at tau=1") {
    val q = "SELECT (100.0 * sum(l_discount) / sum(l_tax)) AS ratio FROM lineitem " +
      "WHERE l_tax > 0"
    val r = approx(vExact, q)
    val exact = spark.sql(q).head().getDouble(0)
    assert(math.abs(r.df.head().getAs[Double]("ratio") - exact) < 1e-9)
  }

  test("join of two hashed samples is exact at tau=1") {
    val q = "SELECT o_orderstatus, sum(l_extendedprice) AS s, count(*) AS c " +
      "FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderstatus"
    val r = approx(vExact, q)
    Oracle.assertEquivalent(r.df.select("o_orderstatus", "s", "c"),
      "SELECT o_orderstatus, sum(l_extendedprice::DOUBLE) AS s, count(*)::DOUBLE AS c " +
        "FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderstatus",
      "lineitem" -> TestData.li, "orders" -> TestData.od)
  }

  test("three-table join with a dimension base table is exact at tau=1") {
    val q = "SELECT c_mktsegment, sum(l_quantity) AS s FROM lineitem, orders, customer " +
      "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey GROUP BY c_mktsegment"
    val r = approx(vExact, q)
    Oracle.assertEquivalent(r.df.select("c_mktsegment", "s"),
      "SELECT c_mktsegment, sum(l_quantity::DOUBLE) AS s FROM lineitem, orders, customer " +
        "WHERE l_orderkey = o_orderkey AND o_custkey = c_custkey GROUP BY c_mktsegment",
      "lineitem" -> TestData.li, "orders" -> TestData.od, "customer" -> TestData.cu)
  }

  test("HAVING filters on the point estimates at tau=1") {
    val q = "SELECT l_returnflag, count(*) AS c FROM lineitem " +
      "GROUP BY l_returnflag HAVING sum(l_quantity) > 100"
    val r = approx(vExact, q)
    Oracle.assertEquivalent(r.df.select("l_returnflag", "c"),
      "SELECT l_returnflag, count(*)::DOUBLE AS c FROM lineitem " +
        "GROUP BY l_returnflag HAVING sum(l_quantity::DOUBLE) > 100",
      "lineitem" -> TestData.li)
  }

  test("ORDER BY and LIMIT apply to the rewritten output") {
    val q = "SELECT l_returnflag, count(*) AS c FROM lineitem " +
      "GROUP BY l_returnflag ORDER BY c DESC LIMIT 2"
    val r = approx(vExact, q)
    val got = r.df.select("c").collect().map(_.getDouble(0))
    assert(got.length == 2)
    assert(got(0) >= got(1))
  }

  test("nested aggregate-in-FROM is exact at tau=1") {
    val q = """SELECT avg(daily) AS a FROM
              |(SELECT l_linenumber, sum(l_extendedprice) AS daily
              | FROM lineitem GROUP BY l_linenumber) t""".stripMargin
    val r = approx(vExact, q)
    val exact = spark.sql(q).head().getDouble(0)
    assert(math.abs(r.df.head().getAs[Double]("a") - exact) / exact < 1e-9)
  }

  test("nested query with outer filter is exact at tau=1") {
    val q = """SELECT count(*) AS c FROM
              |(SELECT l_linenumber, sum(l_quantity) AS tot
              | FROM lineitem GROUP BY l_linenumber) t
              |WHERE tot > 0""".stripMargin
    val r = approx(vExact, q)
    val exact = spark.sql(q).head().getLong(0)
    val est = r.df.head().getAs[Any]("c").toString.toDouble
    assert(math.abs(est - exact) < 1e-6)
  }

  test("rewritten SQL is pure standard SQL over the sample views") {
    val r = approx(vExact,
      "SELECT l_returnflag, count(*) AS c FROM lineitem GROUP BY l_returnflag")
    val sql = r.rewrittenSql.get
    assert(sql.contains("lineitem_uniform"), "must read the sample, not the base")
    assert(!sql.contains("lineitem ") || !sql.contains("FROM lineitem "),
      "must not scan the base table")
    assert(sql.contains("stddev_samp"), "must carry the subsampling error term")
    assert(sql.contains("vsid"), "must carry the subsample-id column")
  }

  // ----------------------------------------------- tau=0.1 statistical sanity --

  test("sampled estimates are close and carry positive error columns") {
    val r = approx(vSampled,
      "SELECT l_returnflag, sum(l_extendedprice) AS s FROM lineitem_s " +
        "GROUP BY l_returnflag")
    assert(r.errColumns == Map("s" -> "s_err"))
    val exact = spark.sql(
      "SELECT l_returnflag, sum(l_extendedprice) AS s FROM lineitem_s " +
        "GROUP BY l_returnflag").collect()
      .map(x => x.getString(0) -> x.getDouble(1)).toMap
    r.df.collect().foreach { row =>
      val est = row.getAs[Double]("s")
      val err = row.getAs[Double]("s_err")
      val ex  = exact(row.getString(0))
      assert(math.abs(est - ex) / ex < 0.2, s"estimate too far: $est vs $ex")
      assert(err > 0, "error estimate must be positive")
      assert(err < ex, "error estimate must be smaller than the value itself")
      // |est - exact| should usually be within ~4 estimated standard errors
      assert(math.abs(est - ex) < 6 * err, s"|${est - ex}| vs err=$err")
    }
  }

  test("sampled avg is within a few percent (variance-reduced by ratio form)") {
    val r = approx(vSampled, "SELECT avg(l_quantity) AS a FROM lineitem_s")
    val exact = spark.sql("SELECT avg(l_quantity) AS a FROM lineitem_s")
      .head().getDouble(0)
    val est = r.df.head().getAs[Double]("a")
    assert(math.abs(est - exact) / exact < 0.05, s"$est vs $exact")
  }

  test("sampled count-distinct via hashed sample is within 20%") {
    val r = approx(vSampled, "SELECT count(distinct l_orderkey) AS cd FROM lineitem_s")
    val exact = spark.sql("SELECT count(distinct l_orderkey) AS cd FROM lineitem_s")
      .head().getLong(0).toDouble
    val est = r.df.head().getAs[Double]("cd")
    assert(math.abs(est - exact) / exact < 0.2, s"$est vs $exact")
  }

  test("sampled median is within a few percent of the exact median") {
    val r = approx(vSampled,
      "SELECT percentile(l_extendedprice, 0.5) AS med FROM lineitem_s")
    val exact = spark.sql(
      "SELECT percentile(l_extendedprice, 0.5) AS med FROM lineitem_s")
      .head().getDouble(0)
    val est = r.df.head().getAs[Double]("med")
    assert(math.abs(est - exact) / exact < 0.05, s"$est vs $exact")
  }

  test("stratified sample keeps every group present (vs uniform may not)") {
    val r = approx(vSampled,
      "SELECT l_returnflag, count(*) AS c FROM lineitem_s GROUP BY l_returnflag")
    assert(r.df.count() == 3, "all three return flags must be present")
  }

  test("joined samples: estimates within 30% at tau=0.1 (hashed x hashed)") {
    val q = "SELECT sum(l_extendedprice) AS s FROM lineitem_s, orders_s " +
      "WHERE l_orderkey = o_orderkey"
    val r = approx(vSampled, q)
    val exact = spark.sql(q).head().getDouble(0)
    val est = r.df.head().getAs[Double]("s")
    assert(math.abs(est - exact) / exact < 0.3, s"$est vs $exact")
  }

  // ------------------------------------- nested path, explicit sample choices --

  private def sampleOf(table: String, t: SampleType, v: Verdict = vSampled): TableChoice =
    UseSample(v.catalog.samplesFor(table).find(_.sampleType == t).get)

  private def rewriteWith(sql: String, choices: Map[String, TableChoice],
                          v: Verdict = vSampled): Rewriter.Rewritten =
    Rewriter.rewrite(v.parse(sql).toOption.get, choices, seed = 3).toOption.get

  test("nested hashed x hashed: _err equals the flat _err of the same global sum") {
    val choices = Map("lineitem_s" -> sampleOf("lineitem_s", SampleType.Hashed),
      "orders_s" -> sampleOf("orders_s", SampleType.Hashed))
    val join = "FROM lineitem_s, orders_s WHERE l_orderkey = o_orderkey"
    val flat = spark.sql(rewriteWith(s"SELECT sum(l_extendedprice) AS s $join", choices).sql)
      .head()
    val nested = spark.sql(rewriteWith("SELECT sum(s) AS s FROM " +
      s"(SELECT o_orderstatus, sum(l_extendedprice) AS s $join GROUP BY o_orderstatus) t",
      choices).sql).head()
    val (fs, fe) = (flat.getAs[Double]("s"), flat.getAs[Double]("s_err"))
    val (ns, ne) = (nested.getAs[Double]("s"), nested.getAs[Double]("s_err"))
    assert(math.abs(ns - fs) / fs < 1e-9, s"point: nested $ns vs flat $fs")
    assert(math.abs(ne - fe) / fe < 0.05, s"_err: nested $ne vs flat $fe")
  }

  test("nested points equal the flat rewrite of the inner query") {
    val choices = Map("lineitem_s" -> sampleOf("lineitem_s", SampleType.Uniform))
    val inner = "SELECT l_returnflag, count(*) AS c, sum(l_quantity) AS s, " +
      "avg(l_quantity) AS a, variance(l_quantity) AS v, stddev(l_quantity) AS sd " +
      "FROM lineitem_s GROUP BY l_returnflag"
    val cols = Seq("c", "s", "a", "v", "sd")
    val flat = spark.sql(rewriteWith(inner, choices).sql).collect()
    val nested = spark.sql(rewriteWith(
      s"SELECT ${cols.map(c => s"sum($c) AS $c").mkString(", ")} FROM ($inner) t",
      choices).sql).head()
    cols.foreach { c =>
      val want = flat.map(_.getAs[Any](c).toString.toDouble).sum
      val got  = nested.getAs[Any](c).toString.toDouble
      assert(math.abs(got - want) <= 1e-9 * math.abs(want), s"$c: nested $got vs flat $want")
    }
  }

  test("nested rewrite reads its sample once") {
    val choice = sampleOf("lineitem_s", SampleType.Uniform)
    val sql = rewriteWith("""SELECT avg(daily) AS a FROM
                            |(SELECT l_linenumber, sum(l_extendedprice) AS daily
                            | FROM lineitem_s GROUP BY l_linenumber) t""".stripMargin,
      Map("lineitem_s" -> choice)).sql
    assert(sql.split(choice.scanTable, -1).length == 2, sql)
    assert(spark.sql(sql).count() == 1)
  }

  test("nested count-distinct over a hashed sample is exact at tau=1") {
    val q = """SELECT sum(cd) AS total FROM
              |(SELECT l_returnflag, count(distinct l_orderkey) AS cd
              | FROM lineitem GROUP BY l_returnflag) t""".stripMargin
    val rw = rewriteWith(q, Map("lineitem" -> sampleOf("lineitem", SampleType.Hashed, vExact)),
      vExact)
    val exact = spark.sql(q).head().getLong(0)
    assert(math.abs(spark.sql(rw.sql).head().getAs[Double]("total") - exact) < 1e-6)
  }

  test("nested query with an inner LIMIT passes through with the exact answer") {
    val q = """SELECT sum(s) AS total FROM
              |(SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem
              | GROUP BY l_returnflag ORDER BY s DESC LIMIT 1) t""".stripMargin
    val r = vExact.sql(q)
    assert(!r.approximate && r.notes.contains("LIMIT"), r.notes)
    assert(r.df.head().get(0) == spark.sql(q).head().get(0))
  }

  test("global nested query whose outer WHERE drops every group counts 0") {
    val q = """SELECT count(*) AS n, sum(s) AS total FROM
              |(SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem
              | GROUP BY l_returnflag) t WHERE s < 0""".stripMargin
    val row = approx(vExact, q).df.head()
    assert(row.getAs[Any]("n").toString.toDouble == 0.0, row)
    assert(row.isNullAt(row.fieldIndex("total")), row)
  }

  test("a flat count over no rows is 0, not NULL, at tau=1") {
    val row = approx(vExact, "SELECT count(*) AS c, sum(l_extendedprice) AS s, " +
      "count(distinct l_orderkey) AS cd FROM lineitem WHERE l_quantity < 0").df.head()
    assert(row.getAs[Any]("c").toString.toDouble == 0.0, row)
    assert(row.getAs[Any]("cd").toString.toDouble == 0.0, row)
    assert(row.isNullAt(row.fieldIndex("s")), row)
    assert(row.isNullAt(row.fieldIndex("c_err")), row)
  }

  test("count-distinct over two sampled sources is declined") {
    val q = "SELECT count(distinct l_orderkey) AS cd FROM lineitem_s, orders_s " +
      "WHERE l_orderkey = o_orderkey"
    val choices = Map("lineitem_s" -> sampleOf("lineitem_s", SampleType.Hashed),
      "orders_s" -> sampleOf("orders_s", SampleType.Uniform))
    val r = Rewriter.rewrite(vSampled.parse(q).toOption.get, choices, seed = 3)
    assert(r.swap.exists(_.contains("count-distinct")), r)
  }

  test("count-distinct over hashed x hashed on the hash key is exact at tau=1") {
    // both samples hash the order key: one sampling unit, one hash sid
    val join = "FROM lineitem, orders WHERE l_orderkey = o_orderkey GROUP BY o_orderstatus"
    val choices = Map("lineitem" -> sampleOf("lineitem", SampleType.Hashed, vExact),
      "orders" -> sampleOf("orders", SampleType.Hashed, vExact))
    val rw = Rewriter.rewrite(vExact.parse(
      s"SELECT o_orderstatus, count(distinct l_orderkey) AS cd $join").toOption.get,
      choices, seed = 3)
    assert(rw.isRight, rw)
    Oracle.assertEquivalent(spark.sql(rw.toOption.get.sql).select("o_orderstatus", "cd"),
      s"SELECT o_orderstatus, count(distinct l_orderkey)::DOUBLE AS cd $join",
      "lineitem" -> TestData.li, "orders" -> TestData.od)
  }

  test("a plan block of base tables runs exactly inside the joined statement") {
    val q = vExact.parse("SELECT l_returnflag, count(*) AS c, count(distinct l_orderkey) AS cd " +
      "FROM lineitem GROUP BY l_returnflag").toOption.get
    val blocks = Seq(
      PlanBlock(Seq(0), Map("lineitem" -> sampleOf("lineitem", SampleType.Uniform, vExact)), 1.0),
      PlanBlock(Seq(1), Map("lineitem" -> UseBase("lineitem", TestData.li.count())), 1.0))
    val rw = Rewriter.rewritePlan(q, Seq.empty, blocks, seed = 3).toOption.get
    assert(rw.errColumns == Map("c" -> "c_err"))
    Oracle.assertEquivalent(spark.sql(rw.sql).select("l_returnflag", "c", "cd"),
      "SELECT l_returnflag, count(*)::DOUBLE AS c, count(distinct l_orderkey) AS cd " +
        "FROM lineitem GROUP BY l_returnflag",
      "lineitem" -> TestData.li)
  }

  test("count-distinct passes through unless its sampling unit hashes the distinct column") {
    // lineitem_p has no sample on l_partkey, so the planner may read it
    // whole and sample orders_p, hashed on o_orderkey: a sampling unit that
    // draws orders, not parts
    val v = new Verdict(spark, VerdictConfig(budgetFraction = 1.0, tau = 0.1))
    v.registerTable("lineitem_p", TestData.li)
    v.registerTable("orders_p", TestData.od)
    v.createSample("lineitem_p", SampleType.Hashed, Seq("l_orderkey"))
    v.createSample("orders_p", SampleType.Hashed, Seq("o_orderkey"))
    val q = "SELECT count(distinct l_partkey) AS cd FROM lineitem_p, orders_p " +
      "WHERE l_orderkey = o_orderkey"
    val r = v.sql(q)
    assert(!r.approximate, r.rewrittenSql)
    assert(r.df.head().getLong(0) == spark.sql(q).head().getLong(0))
  }
}
