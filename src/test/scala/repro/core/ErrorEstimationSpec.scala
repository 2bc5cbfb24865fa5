package repro.core

import repro.SparkSpec
import repro.util.Stats

/** Statistical properties of the SQL-level variational subsampling:
  * sid-invariance of point estimates, agreement of the error column with
  * closed-form expectations, and agreement between the SQL implementation
  * and the driver-side reference.
  */
class ErrorEstimationSpec extends SparkSpec {

  private lazy val v = TestData.verdictSampled

  test("point estimates are invariant to the subsample assignment") {
    // repeated calls draw fresh sids (fresh seeds); the HT point estimate
    // aggregates over all subsamples and must not change
    val q = "SELECT sum(l_extendedprice) AS s FROM lineitem_s"
    val a = v.sql(q).df.head().getAs[Double]("s")
    val b = v.sql(q).df.head().getAs[Double]("s")
    assert(math.abs(a - b) / a < 1e-12, s"$a vs $b")
  }

  test("error estimates vary (slightly) with the subsample assignment") {
    val q = "SELECT sum(l_extendedprice) AS s FROM lineitem_s"
    val a = v.sql(q).df.head().getAs[Double]("s_err")
    val b = v.sql(q).df.head().getAs[Double]("s_err")
    assert(a > 0 && b > 0)
    assert(a != b, "fresh sid assignments should perturb the error estimate")
    assert(math.abs(a - b) / a < 0.6, s"estimates should still agree roughly: $a vs $b")
  }

  test("SQL error column tracks the CLT closed form for a global sum") {
    // uniform sample, sum: CLT stderr of the HT sum over the SAMPLE is
    // sqrt(n * var(x/p)); the subsampling error estimates the same quantity
    val q = "SELECT sum(l_extendedprice) AS s FROM lineitem_s"
    val err = v.sql(q).df.head().getAs[Double]("s_err")
    val st = spark.sql(
      s"""SELECT count(*) AS n, stddev_samp(l_extendedprice / verdict_sampling_prob) AS sd
         |FROM lineitem_s_uniform""".stripMargin).head()
    val clt = math.sqrt(st.getAs[Long]("n").toDouble) * st.getAs[Double]("sd")
    assert(err > clt / 3 && err < clt * 3,
      s"subsampling err $err should be within 3x of CLT $clt")
  }

  test("SQL error column tracks the CLT closed form for a grouped avg") {
    val q = "SELECT l_returnflag, avg(l_quantity) AS a FROM lineitem_s " +
      "GROUP BY l_returnflag"
    val errs = v.sql(q).df.collect()
      .map(r => r.getString(0) -> r.getAs[Double]("a_err")).toMap
    val clts = spark.sql(
      """SELECT l_returnflag, stddev_samp(l_quantity) / sqrt(count(*)) AS se
        |FROM lineitem_s_uniform GROUP BY l_returnflag""".stripMargin).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    clts.foreach { case (g, clt) =>
      val e = errs(g)
      assert(e > clt / 3 && e < clt * 3, s"$g: err $e vs CLT $clt")
    }
  }

  test("true error is within ~4 estimated standard errors (all groups, several aggregates)") {
    val q = "SELECT l_returnflag, sum(l_extendedprice) AS s, count(*) AS c, " +
      "avg(l_quantity) AS a FROM lineitem_s GROUP BY l_returnflag"
    val exact = spark.sql(q.replace("lineitem_s", "lineitem_s")).collect()
      .map(r => r.getString(0) -> (r.getDouble(1), r.getLong(2).toDouble,
        r.getDouble(3))).toMap
    val res = v.sql(q).df.collect()
    res.foreach { r =>
      val (es, ec, ea) = exact(r.getString(0))
      def check(col: String, truth: Double): Unit = {
        val est = r.getAs[Double](col)
        val err = r.getAs[Double](s"$col${Rewriter.ErrSuffix}")
        // sampling noise relative to the sample-based estimate of the
        // full-table value: |est-exact| / err is ~N(0, 1+...) — 6 sigma
        assert(math.abs(est - truth) < 6 * err + 1e-9,
          s"$col@${r.getString(0)}: |${est - truth}| vs err=$err")
      }
      check("s", es); check("c", ec); check("a", ea)
    }
  }

  test("SQL variational CI and driver-side reference agree on a shared dataset") {
    import spark.implicits._
    val xs = {
      val rng = new scala.util.Random(43)
      Array.fill(5000)(10.0 + 10.0 * rng.nextGaussian())
    }
    // SQL side: the data IS the sample (prob 1); avg with subsampling error
    val vv = new Verdict(spark, VerdictConfig(budgetFraction = 2.0, tau = 1.0))
    vv.registerTable("ee_t", xs.toSeq.toDF("x"))
    vv.createSample("ee_t", SampleType.Uniform, tau = 1.0)
    val r    = vv.sql("SELECT avg(x) AS a FROM ee_t")
    val est  = r.df.head().getAs[Double]("a")
    val err  = r.df.head().getAs[Double]("a_err")
    assert(math.abs(est - Stats.mean(xs.toSeq)) < 1e-9, "avg at tau=1 is exact")
    // driver-side reference with the same b
    val b  = VariationalSubsampling.numSubsamples(5000)
    val bd = repro.baselines.DriverBootstrap.variationalMean(xs, b, seed = 77)
    val half = (bd.ciHi - bd.ciLo) / 2
    val z = Verdict.Z
    assert(err * z > half / 3 && err * z < half * 3,
      s"SQL z*err=${err * z} vs driver half-width=$half")
    // both must be near the CLT truth sigma/sqrt(n)
    val clt = Stats.stddev(xs.toSeq) / math.sqrt(5000.0)
    assert(err > clt / 2.5 && err < clt * 2.5, s"err=$err clt=$clt")
  }

  test("smaller samples give larger estimated errors (error scales as 1/sqrt(n))") {
    import spark.implicits._
    val rng = new scala.util.Random(47)
    val xs  = Array.fill(20000)(10.0 + 10.0 * rng.nextGaussian()).toSeq.toDF("x")
    def errAt(tau: Double, name: String): Double = {
      val vv = new Verdict(spark, VerdictConfig(budgetFraction = 2.0, tau = tau))
      vv.registerTable(name, xs)
      vv.createSample(name, SampleType.Uniform, tau = tau)
      vv.sql(s"SELECT avg(x) AS a FROM $name").df.head().getAs[Double]("a_err")
    }
    val big   = errAt(0.5, "ee_big")
    val small = errAt(0.05, "ee_small")
    assert(small > big * 1.8,
      f"err at 5%% ($small%.4f) should be ~sqrt(10)x err at 50%% ($big%.4f)")
  }
}
