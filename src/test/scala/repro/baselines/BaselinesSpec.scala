package repro.baselines

import org.apache.spark.sql.Row

import repro.{Oracle, SparkSpec}
import repro.core._
import repro.core.Ast.{AggCall, AggFuncType}
import repro.core.SampleCatalog.ProbCol

import scala.util.Random

/** The comparator systems: traditional subsampling and consolidated
  * bootstrap in SQL, driver-side statistical references (CLT among them),
  * and the tightly-integrated AQP engine.
  */
class BaselinesSpec extends SparkSpec {

  /** A tau=0.2 uniform sample of lineitem, registered on first use: its
    * view and its row count. */
  private lazy val sample: (String, Long) = {
    val li = TestData.li
    li.createOrReplaceTempView("lineitem")
    val (s, info) = SampleCreator.uniform(li, "lineitem", 0.2, seed = 19)
    s.cache().createOrReplaceTempView("bl_sample")
    ("bl_sample", info.sampleRows)
  }

  private lazy val exactSumQty: Double =
    spark.sql("SELECT sum(l_quantity) AS s FROM lineitem").head().getDouble(0)
  private lazy val exactAvgQty: Double =
    spark.sql("SELECT avg(l_quantity) AS a FROM lineitem").head().getDouble(0)

  private val sumQty   = AggCall(AggFuncType.Sum, Some("l_quantity"))
  private val avgQty   = AggCall(AggFuncType.Avg, Some("l_quantity"))
  private val countAll = AggCall(AggFuncType.Count, None)

  test("traditional subsampling in SQL: estimate, CI, and b subsamples") {
    val (view, n) = sample
    val b = 50; val ns = n / b
    val r = Resampling.estimate(spark, view, sumQty, b, Resampling.Subsampling(n, ns))
    assert(math.abs(r.estimate - exactSumQty) / exactSumQty < 0.1)
    assert(r.stderr > 0)
    assert(r.ciLo < r.estimate && r.estimate < r.ciHi)
    assert(r.b == b, s"expected $b subsamples, got ${r.b}")
  }

  test("consolidated bootstrap in SQL: estimate and percentile CI") {
    val (view, _) = sample
    val r = Resampling.estimate(spark, view, sumQty, b = 50, Resampling.Bootstrap)
    assert(math.abs(r.estimate - exactSumQty) / exactSumQty < 0.1)
    assert(r.ciLo < r.estimate && r.estimate < r.ciHi)
    assert(r.b == 50)
  }

  test("consolidated bootstrap avg and count kinds") {
    val (view, _) = sample
    val ra = Resampling.estimate(spark, view, avgQty, b = 30, Resampling.Bootstrap)
    assert(math.abs(ra.estimate - exactAvgQty) / exactAvgQty < 0.05)
    val rc = Resampling.estimate(spark, view, countAll, b = 30, Resampling.Bootstrap)
    assert(math.abs(rc.estimate - TestData.li.count()) / TestData.li.count() < 0.05)
  }

  test("resampling estimates equal the per-resample weighted-sum reference") {
    val (view, n) = sample
    val b = 50
    // each call's estimate as a sum weighted by the pair multiplicity `w`
    val reference = Seq(
      sumQty   -> ((w: String) => s"sum((l_quantity / $ProbCol) * $w)"),
      countAll -> ((w: String) => s"sum((1.0 / $ProbCol) * $w)"),
      avgQty   -> ((w: String) => s"sum(l_quantity * $w) / sum($w)"))
    def est(r: Row): Double = r.getAs[Any]("est").toString.toDouble
    for ((call, weighted) <- reference;
         method <- Seq(Resampling.Subsampling(n, n / 50), Resampling.Bootstrap)) {
      val full = est(spark.sql(s"SELECT ${weighted("1")} AS est FROM $view").head())
      val ests = spark.sql(s"SELECT rid, ${weighted("mult")} AS est " +
        s"FROM (${Resampling.relation(view, b, method)}) t GROUP BY rid").collect().map(est).toSeq
      val want = Resampling.interval(full, method match {
        case Resampling.Subsampling(n, ns) =>
          val size = if (call == avgQty) 1.0 else n.toDouble / ns
          ests.map(e => Resampling.deviation(full, ns.toDouble, n.toDouble)(e * size))
        case Resampling.Bootstrap => ests.map(full - _)
      })
      val got = Resampling.estimate(spark, view, call, b, method)
      val what = s"${call.sqlExact} by $method"
      for ((name, g, w) <- Seq(("estimate", got.estimate, want.estimate),
             ("stderr", got.stderr, want.stderr), ("ciLo", got.ciLo, want.ciLo),
             ("ciHi", got.ciHi, want.ciHi)))
        assert(math.abs(g - w) <= 1e-9 * math.abs(w), s"$what: $name $g vs $w")
      assert(got.b == want.b, s"$what: b ${got.b} vs ${want.b}")
    }
  }

  test("poissonCase draws have mean ~1 and variance ~1") {
    // the uniform must be materialized first: a CASE directly over rand()
    // re-draws on every (short-circuited) branch
    val draws = spark.sql(
      s"SELECT ${Resampling.poissonCase("u")} AS k " +
        "FROM (SELECT rand(3) AS u FROM range(50000))")
      .collect().map(_.getInt(0).toDouble)
    val mean = draws.sum / draws.length
    val varc = draws.map(x => (x - mean) * (x - mean)).sum / draws.length
    assert(math.abs(mean - 1.0) < 0.02, s"mean=$mean")
    assert(math.abs(varc - 1.0) < 0.06, s"var=$varc")
  }

  test("driver-side CIs achieve ~95% coverage (Theorem 2 sanity)") {
    val rng    = new Random(29)
    val trials = 200
    val n      = 2000
    var cover  = Map("bootstrap" -> 0, "traditional" -> 0,
      "variational" -> 0, "clt" -> 0)
    for (_ <- 1 to trials) {
      val xs = Array.fill(n)(10.0 + 10.0 * rng.nextGaussian())
      def covers(b: Resampling.Result): Boolean = b.ciLo <= 10.0 && 10.0 <= b.ciHi
      if (covers(DriverBootstrap.bootstrapMean(xs, 200, seed = rng.nextLong())))
        cover += "bootstrap" -> (cover("bootstrap") + 1)
      if (covers(DriverBootstrap.subsamplingMean(xs, 45, 200, seed = rng.nextLong())))
        cover += "traditional" -> (cover("traditional") + 1)
      if (covers(DriverBootstrap.variationalMean(xs, 49, seed = rng.nextLong())))
        cover += "variational" -> (cover("variational") + 1)
      if (covers(DriverBootstrap.cltMean(xs)))
        cover += "clt" -> (cover("clt") + 1)
    }
    cover.foreach { case (m, c) =>
      val rate = c.toDouble / trials
      assert(rate > 0.85 && rate <= 1.0, s"$m coverage $rate (want ~0.95)")
    }
  }

  test("variational driver reference: subsample sizes concentrate near n/b") {
    val rng = new Random(31)
    val xs  = Array.fill(10000)(rng.nextGaussian())
    // indirectly: the CI is finite and ordered
    val bd = DriverBootstrap.variationalMean(xs, 100, seed = 7)
    assert(bd.ciLo < bd.ciHi)
    assert(bd.ciLo < bd.estimate && bd.estimate < bd.ciHi)
  }

  test("integrated AQP: flat query close to exact; join falls back to base table") {
    val v = TestData.verdictSampled
    val integrated = new IntegratedAqp(spark, v.catalog,
      t => v.tableStats(t).map(_.rows).getOrElse(0L))
    // flat
    val fq = v.parse("SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem_s " +
      "GROUP BY l_returnflag").toOption.get
    val flat = integrated.run(fq).get.collect()
      .map(r => r.getString(0) -> r.getAs[Any]("s").toString.toDouble).toMap
    val exact = spark.sql("SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem_s " +
      "GROUP BY l_returnflag").collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    exact.foreach { case (g, e) =>
      assert(math.abs(flat(g) - e) / e < 0.25, s"$g: ${flat(g)} vs $e")
    }
    // join: only one relation sampled, the other read as base
    val jq = v.parse("SELECT count(*) AS c FROM lineitem_s, orders_s " +
      "WHERE l_orderkey = o_orderkey").toOption.get
    val joined = integrated.run(jq)
    assert(joined.isDefined)
    val est = joined.get.head().getAs[Any]("c").toString.toDouble
    val exactJ = spark.sql("SELECT count(*) AS c FROM lineitem_s, orders_s " +
      "WHERE l_orderkey = o_orderkey").head().getLong(0)
    assert(math.abs(est - exactJ) / exactJ < 0.25, s"$est vs $exactJ")
    // tau=1: every HT weight is 1, so avg and the moments are the exact
    // population ones
    val ve = TestData.verdictExact
    val exactIntegrated = new IntegratedAqp(spark, ve.catalog,
      t => ve.tableStats(t).map(_.rows).getOrElse(0L))
    val mq = ve.parse("SELECT l_returnflag, avg(l_quantity) AS a, variance(l_quantity) AS v, " +
      "stddev(l_quantity) AS s FROM lineitem GROUP BY l_returnflag").toOption.get
    val moments = exactIntegrated.run(mq).get.collect().map(r => r.getString(0) -> r).toMap
    spark.sql("SELECT l_returnflag, avg(l_quantity), var_pop(l_quantity), " +
      "stddev_pop(l_quantity) FROM lineitem GROUP BY l_returnflag").collect().foreach { e =>
      val got = moments(e.getString(0))
      (1 to 3).foreach { i =>
        assert(math.abs(got.getDouble(i) - e.getDouble(i)) <= 1e-9 * e.getDouble(i),
          s"${e.getString(0)} column $i: ${got.getDouble(i)} vs ${e.getDouble(i)}")
      }
    }
  }

  test("integrated AQP applies HAVING to its estimates (exact at tau=1)") {
    val ve = TestData.verdictExact
    val integrated = new IntegratedAqp(spark, ve.catalog,
      t => ve.tableStats(t).map(_.rows).getOrElse(0L))
    val q = "SELECT l_returnflag, sum(l_quantity) AS s FROM lineitem " +
      "GROUP BY l_returnflag HAVING count(*) > 4000"
    Oracle.assertEquivalent(integrated.run(ve.parse(q).toOption.get).get,
      "SELECT l_returnflag, sum(l_quantity::DOUBLE) AS s FROM lineitem " +
        "GROUP BY l_returnflag HAVING count(*) > 4000",
      "lineitem" -> TestData.li)
  }

  test("integrated AQP declines extreme statistics and unsupported shapes") {
    val v = TestData.verdictSampled
    val integrated = new IntegratedAqp(spark, v.catalog,
      t => v.tableStats(t).map(_.rows).getOrElse(0L))
    val q = v.parse("SELECT max(l_quantity) AS m, avg(l_quantity) AS a " +
      "FROM lineitem_s").toOption.get
    assert(integrated.run(q).isEmpty)
  }
}
