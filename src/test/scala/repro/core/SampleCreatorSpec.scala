package repro.core

import java.nio.file.Files

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.core.SampleCatalog.ProbCol

class SampleCreatorSpec extends SparkSpec {

  private lazy val li = TestData.li
  private lazy val n  = li.count()

  test("uniform sample: ratio ~ tau, prob column = tau, catalog metadata") {
    val (s, info) = SampleCreator.uniform(li, "lineitem", 0.1)
    val m = s.count()
    assert(math.abs(m - 0.1 * n) < 5 * math.sqrt(0.1 * n), s"m=$m n=$n")
    assert(s.select(ProbCol).distinct().collect().map(_.getDouble(0)).toSeq == Seq(0.1))
    assert(info.sampleType == SampleType.Uniform)
    assert(info.baseRows == n && info.sampleRows == m)
    assert(math.abs(info.ratio - m.toDouble / n) < 1e-12)
    assert(info.sampleTable == "lineitem_uniform")
  }

  test("uniform sample is a subset of the base table") {
    val (s, _) = SampleCreator.uniform(li, "lineitem", 0.05)
    assert(s.drop(ProbCol).exceptAll(li).count() == 0)
  }

  test("uniform sample counts the rows of its own draw over Parquet") {
    val dir = Files.createTempDirectory("uniform-sample")
    try {
      li.write.mode("overwrite").parquet(dir.toString)
      val pq = spark.read.parquet(dir.toString)
      Seq(1L, 7L, 11L, 42L, 123L).foreach { seed =>
        val (s, info) = SampleCreator.uniform(pq, "lineitem", 0.1, seed)
        assert(info.baseRows == n && info.sampleRows == s.count(), s"seed $seed: $info")
      }
    } finally FileUtils.deleteDirectory(dir.toFile)
  }

  test("uniform sample rejects invalid tau") {
    intercept[IllegalArgumentException](SampleCreator.uniform(li, "t", 0.0))
    intercept[IllegalArgumentException](SampleCreator.uniform(li, "t", 1.5))
  }

  test("hashed sample: key-complete (all or none of a key's rows kept)") {
    val (s, info) = SampleCreator.hashed(li, "lineitem", Seq("l_orderkey"), 0.1)
    val keptKeys = s.select("l_orderkey").distinct()
    // every row of the base table with a kept key must be in the sample
    val expected = li.join(keptKeys, "l_orderkey").count()
    assert(s.count() == expected, "hashed sample must keep whole key groups")
    assert(info.sampleType == SampleType.Hashed)
    assert(info.columns == Seq("l_orderkey"))
  }

  test("hashed sample: ratio of kept keys ~ tau and prob column = realized ratio") {
    val (s, info) = SampleCreator.hashed(li, "lineitem", Seq("l_orderkey"), 0.2)
    val totalKeys = li.select("l_orderkey").distinct().count()
    val keptKeys  = s.select("l_orderkey").distinct().count()
    assert(math.abs(keptKeys - 0.2 * totalKeys) < 5 * math.sqrt(0.2 * totalKeys))
    val p = s.select(ProbCol).head().getDouble(0)
    assert(math.abs(p - info.ratio) < 1e-12)
  }

  test("hashed samples on the same column set agree across tables (shared inclusion)") {
    val (sl, _) = SampleCreator.hashed(li, "lineitem", Seq("l_orderkey"), 0.1)
    val od      = TestData.od
    val (so, _) = SampleCreator.hashed(
      od.withColumnRenamed("o_orderkey", "l_orderkey"), "orders2", Seq("l_orderkey"), 0.1)
    val lKeys = sl.select("l_orderkey").distinct().collect().map(_.getLong(0)).toSet
    val oKeys = so.select("l_orderkey").distinct().collect().map(_.getLong(0)).toSet
    // both tables draw keys 1..N_orders from the same domain; the kept key
    // sets must coincide on the shared domain
    val shared = lKeys.intersect(oKeys)
    assert(shared.nonEmpty)
    val lOnly = lKeys.diff(oKeys).filter(_ <= od.count())
    assert(lOnly.isEmpty, s"keys sampled on one side only: ${lOnly.take(5)}")
  }

  test("stratified sample: per-stratum minimum holds (tau=0.05, 3 strata)") {
    val (s, info) = SampleCreator.stratified(li, "lineitem", Seq("l_returnflag"), 0.05)
    val d = li.select("l_returnflag").distinct().count()
    val m = math.ceil(n * 0.05 / d).toLong
    val counts = s.groupBy("l_returnflag").count().collect()
    assert(counts.length == d)
    counts.foreach(r => assert(r.getLong(1) >= m,
      s"stratum ${r.get(0)}: ${r.getLong(1)} < $m"))
    assert(info.sampleType == SampleType.Stratified)
  }

  test("stratified sample: tiny strata are kept whole with probability 1") {
    import spark.implicits._
    val df = (Seq.fill(1000)("big") ++ Seq.fill(3)("rare")).zipWithIndex
      .toDF("g", "v")
    val (s, _) = SampleCreator.stratified(df, "skewed", Seq("g"), 0.05)
    assert(s.where($"g" === "rare").count() == 3, "rare stratum must be complete")
    val probs = s.where($"g" === "rare").select(ProbCol).distinct().collect()
    assert(probs.map(_.getDouble(0)).toSeq == Seq(1.0))
  }

  test("stratified sample: probabilities follow the staircase per stratum size") {
    val (s, _) = SampleCreator.stratified(li, "lineitem", Seq("l_returnflag"), 0.05)
    // all rows of one stratum share one sampling probability
    val perStratum = s.groupBy("l_returnflag")
      .agg(countDistinct(col(ProbCol)).as("np")).collect()
    perStratum.foreach(r => assert(r.getLong(1) == 1L))
  }

  test("registerSample registers the view and the catalog entry") {
    // a base name of its own: registering a sample of `lineitem` would
    // replace the tau=1 `lineitem_uniform` view that other suites read
    val cat = new SampleCatalog
    val (s, info) = SampleCreator.uniform(li, "sc_register_li", 0.1)
    SampleCreator.registerSample(spark, cat, s, info)
    assert(spark.table(info.sampleTable).columns.contains(ProbCol))
    assert(cat.samplesFor("sc_register_li").map(_.sampleTable) == Seq(info.sampleTable))
  }

  test("hashUnitExpr maps onto [0,1) uniformly-ish") {
    val vals = spark.sql(
      s"SELECT ${SampleCreator.hashUnitExpr(Seq("id"))} AS h FROM range(10000)")
      .collect().map(_.getAs[Any]("h").toString.toDouble)
    assert(vals.forall(v => v >= 0.0 && v < 1.0))
    val mean = vals.sum / vals.length
    assert(math.abs(mean - 0.5) < 0.02, s"mean=$mean")
  }
}
