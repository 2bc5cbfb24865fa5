package repro.core

import java.nio.file.Files

import org.apache.commons.io.FileUtils
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
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

  test("every sample type counts the rows of its own draw over Parquet") {
    // the benchmark's SF 0.05 lineitem and stratification: a count that
    // re-ran the stratified draw's plan was coalesced differently from it
    val root = Files.createTempDirectory("sample-draws")
    try Seq(1L, 2L, 3L).foreach { seed =>
      val base = root.resolve(s"lineitem_$seed").toString
      SynthData.lineitem(spark, 0.05, seed * 1000).write.parquet(base)
      val pq   = spark.read.parquet(base)
      val rows = pq.count()
      Seq(
        SampleCreator.uniform(pq, "lineitem", 0.01, seed * 31),
        SampleCreator.hashed(pq, "lineitem", Seq("l_orderkey"), 0.01),
        SampleCreator.stratified(pq, "lineitem", Seq("l_returnflag", "l_linestatus"), 0.01,
          seed = seed * 31 + 2)
      ).foreach { case (s, info) =>
        val dir = root.resolve(s"${info.sampleTable}_$seed").toString
        val returned = s.count()
        s.write.parquet(dir)
        val written = spark.read.parquet(dir).count()
        assert(info.baseRows == rows, s"seed $seed ${info.sampleType}: $info")
        assert(info.sampleRows == returned && returned == written,
          s"seed $seed ${info.sampleType}: recorded ${info.sampleRows}, " +
            s"returned $returned, written $written")
      }
    } finally FileUtils.deleteDirectory(root.toFile)
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

  test("registerSample keeps one in-memory copy of each sample") {
    // base names of their own, as in the test above
    val cat = new SampleCatalog
    def stored = spark.sparkContext.getRDDStorageInfo.map(_.id).toSet
    n // caches the base table before the first look at storage
    Seq[() => (DataFrame, SampleInfo)](
      () => SampleCreator.uniform(li, "sc_copies_u", 0.1),
      () => SampleCreator.stratified(li, "sc_copies_s", Seq("l_returnflag"), 0.1)
    ).foreach { create =>
      val before    = stored
      val (s, info) = create()
      SampleCreator.registerSample(spark, cat, s, info)
      assert(spark.table(info.sampleTable).count() == info.sampleRows)
      val added = stored -- before
      assert(added.size == 1, s"${info.sampleType}: ${added.size} stored copies")
    }
  }

  test("release drops the stored copy of a written sample") {
    def stored = spark.sparkContext.getRDDStorageInfo.map(_.id).toSet
    n // caches the base table before the first look at storage
    val before = stored
    val (s, _) = SampleCreator.stratified(li, "sc_release", Seq("l_returnflag"), 0.1)
    assert((stored -- before).size == 1, "the stratified draw is stored once")
    SampleCreator.release(s)
    assert(stored == before)
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
