package repro.core

import repro.{SparkSpec, SynthData}
import repro.core.SamplePlanner.UseSample

/** Calibration of `_err` over hashed (universe) samples against the exact
  * design standard error.
  *
  * A hashed sample keeps each join key independently with probability tau,
  * together with all of the key's rows, so the Horvitz–Thompson total of a
  * cell has variance (1 - tau) / tau * sum over keys of Y_key^2, where Y_key
  * is the key's own total in that cell. That is computed here from the base
  * data. The sample and its hash sids are functions of the data alone, so
  * the check is deterministic given the data seeds.
  */
class HashedCalibrationSpec extends SparkSpec {

  private val Tau   = 0.1
  private val SF    = 0.01
  private val Seeds = Seq(1L, 2L, 3L)

  /** One Verdict per data seed, over tables suffixed `_c<seed>`, with a
    * hashed sample of lineitem and of orders on the order key. */
  private lazy val contexts: Seq[(Verdict, String)] = Seeds.map { seed =>
    val v = new Verdict(spark, VerdictConfig(tau = Tau))
    val sfx = s"_c$seed"
    v.registerTable(s"lineitem$sfx", SynthData.lineitem(spark, SF, seed = 10 * seed).cache())
    v.registerTable(s"orders$sfx", SynthData.orders(spark, SF, seed = 10 * seed + 1).cache())
    v.createSample(s"lineitem$sfx", SampleType.Hashed, Seq("l_orderkey"), tau = Tau)
    v.createSample(s"orders$sfx", SampleType.Hashed, Seq("o_orderkey"), tau = Tau)
    v -> sfx
  }

  /** Mean over every cell of every seed of `_err` / design SE for
    * `SELECT group, agg FROM tables [join] GROUP BY group`, each source read
    * from its hashed sample. Every sample draws the order key. */
  private def meanRatio(tables: Seq[String], join: String, group: String,
                        agg: String): Double = {
    val ratios = contexts.flatMap { case (v, sfx) =>
      val from = s"FROM ${tables.map(_ + sfx).mkString(", ")}$join"
      val q = s"SELECT $group AS g, $agg AS v $from GROUP BY $group"
      val choices = tables.map(t =>
        (t + sfx) -> UseSample(v.catalog.samplesFor(t + sfx).head)).toMap
      val rw = Rewriter.rewrite(v.parse(q).toOption.get, choices, seed = 5).toOption.get
      val errs = spark.sql(rw.sql).collect()
        .map(r => r.get(0) -> r.getAs[Double]("v_err")).toMap
      val design = spark.sql(
        s"""SELECT g, sqrt(${(1 - Tau) / Tau} * sum(y * y)) AS se FROM
           |(SELECT $group AS g, CAST($agg AS DOUBLE) AS y $from
           | GROUP BY $group, l_orderkey) t GROUP BY g""".stripMargin).collect()
      assert(errs.keySet == design.map(_.get(0)).toSet, s"groups of $q")
      design.map(r => errs(r.get(0)) / r.getAs[Double]("se"))
    }
    ratios.sum / ratios.size
  }

  private def assertCalibrated(ratio: Double): Unit = {
    info(f"mean _err / design SE = $ratio%.3f")
    assert(ratio >= 0.8 && ratio <= 1.3, s"mean _err / design SE = $ratio")
  }

  private val joined = " WHERE l_orderkey = o_orderkey"

  test("hashed flat sum: _err matches the design SE") {
    assertCalibrated(meanRatio(Seq("lineitem"), "", "l_returnflag", "sum(l_extendedprice)"))
  }

  test("hashed x hashed grouped sum: _err matches the design SE") {
    assertCalibrated(meanRatio(Seq("lineitem", "orders"), joined, "o_orderstatus",
      "sum(l_extendedprice)"))
  }

  test("hashed x hashed grouped count: _err matches the design SE") {
    assertCalibrated(meanRatio(Seq("lineitem", "orders"), joined, "o_orderstatus", "count(*)"))
  }

  test("hashed count-distinct: _err matches the design SE") {
    assertCalibrated(meanRatio(Seq("lineitem"), "", "l_returnflag", "count(distinct l_orderkey)"))
  }

  test("hashed x hashed count-distinct: _err matches the design SE") {
    assertCalibrated(meanRatio(Seq("lineitem", "orders"), joined, "o_orderstatus",
      "count(distinct l_orderkey)"))
  }
}
