package repro.core

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.{AtomicBoolean, AtomicInteger}

import org.apache.spark.metrics.source.CodegenMetrics
import org.apache.spark.sql.execution.{LocalTableScanExec, QueryExecution, SparkPlan, WholeStageCodegenExec}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.functions.{col, count_distinct}
import org.apache.spark.sql.internal.SQLConf
import org.apache.spark.sql.util.QueryExecutionListener

import repro.{SparkSpec, SynthData}

import scala.jdk.CollectionConverters._

/** The middleware facade: pass-through behaviour, extreme-statistic
  * decomposition (Section 2.2), HAC (Section 2.4), transparent mode, and
  * the Appendix F default sampling policy.
  */
class VerdictSpec extends SparkSpec {

  private lazy val vExact   = TestData.verdictExact
  private lazy val vSampled = TestData.verdictSampled

  /** A Verdict over a 400-row table `name` (g = i % 3, NULL on every 4th
    * row; x = i) with a uniform sample at `cfg.tau`. */
  private def tinyVerdict(name: String, cfg: VerdictConfig): Verdict = {
    import spark.implicits._
    val df = (1 to 400).map(i => (if (i % 4 == 0) None else Some(i % 3), i.toDouble))
      .toDF("g", "x")
    val v = new Verdict(spark, cfg)
    v.registerTable(name, df)
    v.createSample(name, SampleType.Uniform, tau = cfg.tau)
    v
  }

  /** Plans of the statements the engine ran for `f`, as a
    * QueryExecutionListener sees them. The listener bus delivers its events
    * in order and late, so marker statements run before and after `f`
    * bracket its events: the first keeps out those of earlier statements,
    * the second flushes the bus. */
  private def statementsOf(f: => Unit): Seq[SparkPlan] = {
    val plans   = new ConcurrentLinkedQueue[SparkPlan]
    val started = new AtomicBoolean(false)
    val marked  = new AtomicBoolean(false)
    val listener = new QueryExecutionListener {
      def onSuccess(fn: String, qe: QueryExecution, ns: Long): Unit =
        qe.analyzed.output.map(_.name) match {
          case Seq("statements_start")  => started.set(true)
          case Seq("statements_marker") => marked.set(true)
          case _                        => if (started.get) plans.add(qe.executedPlan)
        }
      def onFailure(fn: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      spark.range(1).toDF("statements_start").collect()
      f
      spark.range(1).toDF("statements_marker").collect()
      val deadline = System.nanoTime() + 30L * 1000 * 1000 * 1000
      while (!marked.get && System.nanoTime() < deadline) Thread.sleep(10)
      assert(marked.get, "listener bus did not flush")
      plans.asScala.toSeq
    } finally spark.listenerManager.unregister(listener)
  }

  /** Statements that read more than Spark's local scan of collected rows. */
  private def engineStatements(plans: Seq[SparkPlan]): Seq[SparkPlan] =
    plans.filterNot(_.collectLeaves().forall(_.isInstanceOf[LocalTableScanExec]))

  /** What a statement planned, adaptive query stages included. */
  private object Plans extends AdaptiveSparkPlanHelper {
    def widths(p: SparkPlan): Seq[Int] = collect(p) { case e: ShuffleExchangeExec => e.numPartitions }
    def codegenStages(p: SparkPlan): Int = collect(p) { case w: WholeStageCodegenExec => w }.size
  }

  private def sessionWidth: Int = spark.conf.get(SQLConf.SHUFFLE_PARTITIONS.key).toInt

  test("non-aggregate queries pass through with exact results") {
    val r = vExact.sql("SELECT l_returnflag FROM lineitem WHERE l_quantity > 49 " +
      "GROUP BY l_returnflag")
    assert(!r.approximate)
    assert(r.notes.contains("unsupported") || r.notes.contains("no aggregates"))
  }

  test("extreme-only aggregate queries pass through") {
    val r = vExact.sql("SELECT max(l_extendedprice) AS m FROM lineitem")
    assert(!r.approximate)
    assert(r.notes.contains("extreme-only"))
    val exact = spark.sql("SELECT max(l_extendedprice) AS m FROM lineitem").head()
    assert(r.df.head().getDouble(0) == exact.getDouble(0))
  }

  test("mixed extreme + mean-like queries are decomposed (Section 2.2)") {
    val q = "SELECT l_returnflag, max(l_extendedprice) AS mx, avg(l_quantity) AS aq " +
      "FROM lineitem GROUP BY l_returnflag"
    val r = vExact.sql(q)
    assert(r.approximate)
    assert(r.notes.contains("decomposed"))
    assert(r.df.columns.toSeq.take(3) == Seq("l_returnflag", "mx", "aq"))
    val exact = spark.sql(q).collect()
      .map(x => x.getString(0) -> (x.getDouble(1), x.getDouble(2))).toMap
    r.df.collect().foreach { row =>
      val (mx, aq) = exact(row.getString(0))
      assert(row.getAs[Double]("mx") == mx, "extreme part must be exact")
      assert(math.abs(row.getAs[Double]("aq") - aq) < 1e-9,
        "mean-like part is exact at tau=1")
    }
  }

  test("queries against tables without samples pass through") {
    TestData.pa.createOrReplaceTempView("part_nosample")
    val r = vExact.sql("SELECT count(*) AS c FROM part_nosample")
    assert(!r.approximate)
  }

  test("unparseable SQL is not swallowed") {
    intercept[Exception](spark.sql("SELECT FROM WHERE"))
    val r = vExact.sql("SELECT count(*) AS c FROM lineitem WHERE l_quantity > 0 " +
      "AND exists (SELECT 1 FROM orders)")
    assert(!r.approximate) // EXISTS is unsupported -> passthrough, still answers
  }

  test("HAC: a violated accuracy requirement triggers an exact rerun") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 0.2,
        accuracyRequirement = Some(1e-9))) // impossible to satisfy
    v.registerTable("hac_t", tiny)
    v.createSample("hac_t", SampleType.Uniform, tau = 0.2)
    val r = v.sql("SELECT sum(x) AS s FROM hac_t")
    assert(!r.approximate, "HAC must fall back to the exact answer")
    assert(r.notes.contains("HAC"))
    assert(r.df.head().getDouble(0) == 400.0 * 401 / 2)
  }

  test("HAC: a satisfied accuracy requirement keeps the approximate answer") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 1.0,
        accuracyRequirement = Some(0.5)))
    v.registerTable("hac_u", tiny)
    v.createSample("hac_u", SampleType.Uniform, tau = 1.0)
    val r = v.sql("SELECT sum(x) AS s FROM hac_u")
    assert(r.approximate)
  }

  test("transparent mode: errorColumns=false hides the *_err columns") {
    import spark.implicits._
    val tiny = (1 to 400).map(i => (i % 5, i.toDouble)).toDF("g", "x")
    val v = new Verdict(spark,
      VerdictConfig(budgetFraction = 1.0, tau = 1.0, errorColumns = false))
    v.registerTable("tm_t", tiny)
    v.createSample("tm_t", SampleType.Uniform, tau = 1.0)
    val r = v.sql("SELECT g, sum(x) AS s FROM tm_t GROUP BY g")
    assert(r.approximate)
    assert(r.df.columns.toSeq == Seq("g", "s"))
    assert(r.errColumns.isEmpty)
  }

  test("error columns are present by default and named <alias>_err") {
    val r = vExact.sql("SELECT l_returnflag, count(*) AS c FROM lineitem " +
      "GROUP BY l_returnflag")
    assert(r.df.columns.toSeq == Seq("l_returnflag", "c", "c_err"))
    assert(r.errColumns == Map("c" -> "c_err"))
  }

  test("registerTable gathers row counts and cardinalities") {
    val st = vExact.tableStats("lineitem").get
    assert(st.rows == TestData.li.count())
    assert(st.cardinalities("l_returnflag") <= 4) // approx; 3 values
    assert(st.cardinalities("l_orderkey") > 100)
  }

  test("registerTable estimates each column's distinct non-NULL values within 5%") {
    val df = spark.range(200000).selectExpr(
      "id",
      "id % 50000 AS k50k",
      "id % 7 AS k7",
      "concat('s', id % 3000) AS s3k",
      "(id % 20000) / 4.0 AS d20k",
      "cast(date_add(date'2020-01-01', cast(id % 900 AS int)) AS date) AS day",
      "CASE WHEN id % 2 = 0 THEN NULL ELSE id % 5 END AS n5",
      "CASE WHEN id % 3 = 0 THEN NULL ELSE id % 40000 END AS n40k")
    val v  = new Verdict(spark)
    val st = v.registerTable("card_t", df)
    val exact = df.select(df.columns.toSeq.map(c => count_distinct(col(c))): _*).head()
    assert(st.rows == 200000)
    df.columns.zipWithIndex.foreach { case (c, i) =>
      val truth = exact.getLong(i)
      val est   = st.cardinalities(c.toLowerCase)
      assert(math.abs(est - truth) <= 0.05 * truth, s"$c: estimate $est, exact $truth")
    }
    assert(v.registerTable("card_t", df) == st, "a second pass gives the same stats")
  }

  test("registerTable on an empty table gives zero rows and zero cardinalities") {
    val empty = spark.range(0).selectExpr("id", "cast(id AS string) AS s")
    val st = new Verdict(spark).registerTable("card_empty", empty)
    assert(st == TableStats(0L, Map("id" -> 0L, "s" -> 0L)))
  }

  test("default sampling policy (Appendix F): uniform + hashed high-card + stratified low-card") {
    val df = SynthData.lineitem(spark, 0.001)
    val v  = new Verdict(spark, VerdictConfig(tau = 0.1))
    v.registerTable("policy_t", df)
    val infos = v.createDefaultSamples("policy_t")
    // a table of fewer than 10 M rows is sampled whole
    assert(infos.forall(_.tau == 1.0), infos)
    assert(infos.count(_.sampleType == SampleType.Uniform) == 1)
    // two columns each: more than two lie on each side of 1% of |T|
    val hashed = infos.filter(_.sampleType == SampleType.Hashed)
    assert(hashed.size == 2 && hashed.forall(_.columns.size == 1))
    val strat = infos.filter(_.sampleType == SampleType.Stratified)
    assert(strat.size == 2 && strat.forall(_.columns.size == 1))
    // hashed goes to higher-cardinality columns than stratified
    val st = v.tableStats("policy_t").get
    def card(i: SampleInfo) = st.cardinalities(i.columns.head.toLowerCase)
    assert(hashed.map(card).min > strat.map(card).max)
    assert(v.catalog.samplesFor("policy_t").size == infos.size)
  }

  test("count(1) is treated as count(*)") {
    val r = vExact.sql("SELECT count(1) AS c FROM lineitem")
    assert(r.approximate)
    val exact = spark.sql("SELECT count(1) AS c FROM lineitem").head().getLong(0)
    assert(math.abs(r.df.head().getAs[Double]("c") - exact) < 1e-6)
  }

  // ------------------------------------------------ one statement per query --

  test("a multi-block query is one statement; ORDER BY and LIMIT apply to its rows") {
    val r = vSampled.sql("SELECT l_returnflag, count(distinct l_orderkey) AS cd, " +
      "percentile(l_quantity, 0.5) AS med FROM lineitem_s GROUP BY l_returnflag " +
      "ORDER BY l_returnflag LIMIT 2")
    assert(r.approximate, r.notes)
    val sql = r.rewrittenSql.get
    assert(!sql.contains(";") && sql.contains("_hashed_") && sql.contains("_uniform"), sql)
    assert(r.df.collect().map(_.getString(0)).toSeq == Seq("A", "N"))
  }

  test("min/max: ORDER BY the extreme alias with LIMIT returns the exact top row") {
    val q = "SELECT l_returnflag, max(l_extendedprice) AS mx, avg(l_quantity) AS aq " +
      "FROM lineitem_s GROUP BY l_returnflag ORDER BY mx DESC LIMIT 1"
    val r = vSampled.sql(q)
    assert(r.approximate && r.notes.contains("decomposed"), r.notes)
    val exact = spark.sql(q).head()
    val rows  = r.df.collect()
    assert(rows.length == 1)
    assert(rows.head.getString(0) == exact.getString(0))
    assert(rows.head.getAs[Double]("mx") == exact.getDouble(1))
  }

  test("min/max: ORDER BY the mean-like alias orders the rows") {
    val q = "SELECT l_linenumber, max(l_extendedprice) AS mx, avg(l_quantity) AS aq " +
      "FROM lineitem GROUP BY l_linenumber ORDER BY aq"
    val r = vExact.sql(q)
    assert(r.approximate && r.notes.contains("decomposed"), r.notes)
    assert(r.df.collect().map(_.getInt(0)).toSeq ==
      spark.sql(q).collect().map(_.getInt(0)).toSeq)
  }

  test("min/max: a NULL group key is kept") {
    val v = tinyVerdict("nullg_t", VerdictConfig(budgetFraction = 1.0, tau = 1.0))
    val q = "SELECT g, max(x) AS mx, sum(x) AS s FROM nullg_t GROUP BY g"
    val r = v.sql(q)
    assert(r.approximate, r.notes)
    val got = r.df.collect().map(row => Option(row.get(0)) -> row.getAs[Double]("mx")).toMap
    val want = spark.sql(q).collect().map(row => Option(row.get(0)) -> row.getDouble(1)).toMap
    assert(want.size == 4 && got == want)
  }

  test("min/max: grouping by a key the query does not select passes through") {
    val v = tinyVerdict("hidden_g_t", VerdictConfig(budgetFraction = 1.0, tau = 1.0))
    val q = "SELECT max(x) AS mx, sum(x) AS s FROM hidden_g_t GROUP BY g"
    val r = v.sql(q)
    assert(!r.approximate && r.notes.contains("group key"), r.notes)
    assert(r.df.count() == 4)
  }

  test("HAC: with errorColumns = false a violated requirement still reruns exactly") {
    val v = tinyVerdict("hac_noerr_t", VerdictConfig(budgetFraction = 1.0, tau = 0.2,
      accuracyRequirement = Some(1e-9), errorColumns = false))
    val r = v.sql("SELECT sum(x) AS s FROM hac_noerr_t")
    assert(!r.approximate && r.notes.startsWith("HAC violated"), r.notes)
    assert(r.df.head().getDouble(0) == 400.0 * 401 / 2)
  }

  for ((name, oneRowGroup) <- Seq(
         "HAC: a group whose rows fall in one subsample has no error and reruns exactly" -> true,
         "HAC: the same table without that group stays approximate" -> false))
    test(name) {
      import spark.implicits._
      val rows = (1 to 400).map(i => (i % 3, i.toDouble)) ++
        (if (oneRowGroup) Seq((9, 1.0)) else Seq.empty)
      val table = s"hac_single_${oneRowGroup}_t"
      val v = new Verdict(spark, VerdictConfig(budgetFraction = 1.0, tau = 1.0,
        accuracyRequirement = Some(0.5)))
      v.registerTable(table, rows.toDF("g", "x"))
      v.createSample(table, SampleType.Uniform, tau = 1.0)
      val r = v.sql(s"SELECT g, sum(x) AS s FROM $table GROUP BY g")
      if (oneRowGroup) assert(!r.approximate && r.notes.startsWith("HAC violated"), r.notes)
      else assert(r.approximate, r.notes)
    }

  test("createSample draws a stratified sample with the configured seed") {
    import spark.implicits._
    val df = (1 to 2000).map(i => (i % 2, i)).toDF("g", "x")
    def drawn(seed: Long): Set[Int] = {
      val v = new Verdict(spark, VerdictConfig(tau = 0.1, seed = seed))
      v.registerTable("seeded_t", df)
      val info = v.createSample("seeded_t", SampleType.Stratified, Seq("g"))
      spark.table(info.sampleTable).select("x").as[Int].collect().toSet
    }
    assert(drawn(1) == drawn(1), "equal seeds draw the same rows")
    assert(drawn(1) != drawn(2), "different seeds draw different rows")
  }

  for ((name, requirement) <- Seq(
         "HAC: a satisfied requirement answers from the one statement it ran" -> Some(0.5),
         "without an accuracy requirement a query runs one engine statement" -> None))
    test(name) {
      val table = s"once_${requirement.size}_t"
      val v = tinyVerdict(table, VerdictConfig(budgetFraction = 1.0, tau = 1.0,
        accuracyRequirement = requirement))
      var r: VerdictResult = null
      val plans = statementsOf {
        r = v.sql(s"SELECT g, sum(x) AS s FROM $table GROUP BY g")
        r.df.collect()
      }
      assert(r.approximate, r.notes)
      // serving the collected rows back is a local scan, not an engine statement
      assert(engineStatements(plans).size == 1, plans.mkString("\n"))
      assert(r.df.columns.toSeq == Seq("g", "s", "s_err"))
    }

  test("a nested query is planned on its inner aggregates") {
    val q = "SELECT sum(cd) AS t FROM (SELECT l_returnflag, count(distinct l_orderkey) AS cd " +
      "FROM lineitem_s GROUP BY l_returnflag) x"
    val r = vSampled.sql(q)
    assert(r.approximate, r.notes)
    assert(r.rewrittenSql.get.contains("lineitem_s_hashed_l_orderkey"), r.rewrittenSql)
    val exact = spark.sql(q).head().getLong(0).toDouble
    val est   = r.df.head().getAs[Double]("t")
    assert(math.abs(est - exact) / exact < 0.2, s"$est vs $exact")
  }

  test("an aliased join reads the same hashed samples as its unaliased twin") {
    def run(from: String) = vSampled.sql(
      s"SELECT count(distinct l_orderkey) AS cd FROM $from WHERE l_orderkey = o_orderkey")
    val (aliased, plain) = (run("lineitem_s l, orders_s o"), run("lineitem_s, orders_s"))
    assert(aliased.approximate && plain.approximate, aliased.notes)
    Seq("lineitem_s_hashed_l_orderkey", "orders_s_hashed_o_orderkey").foreach { t =>
      assert(aliased.rewrittenSql.get.contains(t) && plain.rewrittenSql.get.contains(t),
        aliased.rewrittenSql)
    }
    val (a, p) = (aliased.df.head().getAs[Double]("cd"), plain.df.head().getAs[Double]("cd"))
    assert(math.abs(a - p) <= 1e-9 * math.abs(p), s"$a vs $p")
  }

  // ------------------------------------------------ per-statement shuffle width --

  test("shuffle width: one partition per RowsPerPartition rows, within 1 and the session width") {
    import Verdict.{RowsPerPartition => R, shuffleWidth}
    // a bench statement reads 500 to 3 300 sample rows (SF 0.05, tau 0.01)
    Seq(0L, 1L, 500L, 3300L, R).foreach(rows => assert(shuffleWidth(rows, 64) == 1, rows))
    assert(shuffleWidth(R + 1, 64) == 2)
    // an exact min/max part adds its base rows: 3 K sample rows plus 300 K
    assert(shuffleWidth(303000L, 64) == 13)
    assert(shuffleWidth(Long.MaxValue, 64) == 64)
    for (rows <- Seq(0L, 1L, R - 1, 7 * R + 3, 1000 * R, Long.MaxValue); session <- Seq(1, 4, 64, 200)) {
      val w = shuffleWidth(rows, session)
      assert(w >= 1 && w <= session, s"$rows rows, session $session: $w")
    }
  }

  /** A Verdict over a 60 001-row table `width_t` (g = i % 7, x = i) with a
    * tau = 1 uniform sample: its statements read more than one partition's rows. */
  private lazy val wide: Verdict = {
    val v = new Verdict(spark, VerdictConfig(budgetFraction = 1.0, tau = 1.0))
    v.registerTable("width_t", spark.range(1, 60002).selectExpr("id % 7 AS g", "CAST(id AS DOUBLE) AS x"))
    v.createSample("width_t", SampleType.Uniform, tau = 1.0)
    v
  }

  test("shuffle width: a rewritten statement shuffles at the width of the rows it reads") {
    val sample = wide.catalog.samplesFor("width_t").head.sampleRows
    val base   = wide.tableStats("width_t").get.rows
    def widthsOf(q: String): Seq[Int] = {
      var r: VerdictResult = null
      val plans = statementsOf { r = wide.sql(q); r.df.collect() }
      assert(r.approximate, r.notes)
      engineStatements(plans).flatMap(Plans.widths)
    }
    val flat = widthsOf("SELECT g, sum(x) AS s FROM width_t GROUP BY g")
    assert(flat.nonEmpty && flat.forall(_ == Verdict.shuffleWidth(sample, sessionWidth)), flat)
    assert(Verdict.shuffleWidth(sample, sessionWidth) == 3)
    // the exact min/max part reads the base table whole
    val decomposed = widthsOf("SELECT g, max(x) AS mx, sum(x) AS s FROM width_t GROUP BY g")
    assert(decomposed.nonEmpty &&
      decomposed.forall(_ == Verdict.shuffleWidth(sample + base, sessionWidth)), decomposed)
  }

  test("shuffle width: a pass-through query keeps the session width") {
    var r: VerdictResult = null
    val plans = statementsOf {
      r = wide.sql("SELECT g, max(x) AS mx FROM width_t GROUP BY g")
      r.df.collect()
    }
    assert(!r.approximate, r.notes)
    val widths = plans.flatMap(Plans.widths)
    assert(widths.nonEmpty && widths.forall(_ == sessionWidth), widths)
    // and its generated code
    assert(plans.map(Plans.codegenStages).sum > 0, plans)
  }

  // ------------------------------------------ statements without generated code --

  private val wholeStageKey = SQLConf.WHOLESTAGE_CODEGEN_ENABLED.key
  private val factoryKey    = "spark.sql.codegen.factoryMode"

  test("interpreted: generated code above InterpretedRows, none at or below it") {
    import Verdict.{InterpretedRows => I, statementSettings}
    val off = Seq(wholeStageKey -> "false", factoryKey -> "NO_CODEGEN")
    for (rows <- Seq(0L, 3300L, 60001L, I); session <- Seq(1, 64))
      assert(statementSettings(rows, session) ==
        (SQLConf.SHUFFLE_PARTITIONS.key -> Verdict.shuffleWidth(rows, session).toString) +: off,
        s"$rows rows, session $session")
    for (rows <- Seq(I + 1, 7500000L, Long.MaxValue))
      assert(statementSettings(rows, 64) ==
        Seq(SQLConf.SHUFFLE_PARTITIONS.key -> Verdict.shuffleWidth(rows, 64).toString), rows)
  }

  test("interpreted: a second run of a small query compiles nothing") {
    val q = "SELECT g, sum(x) AS s, avg(x) AS a FROM width_t GROUP BY g"
    assert(wide.catalog.samplesFor("width_t").head.sampleRows <= Verdict.InterpretedRows)
    wide.sql(q).df.collect()
    var r: VerdictResult = null
    var compiles         = -1L
    val plans = statementsOf {
      val before = CodegenMetrics.METRIC_COMPILATION_TIME.getCount
      r = wide.sql(q) // a fresh rand seed, which generated code would compile
      r.df.collect()
      compiles = CodegenMetrics.METRIC_COMPILATION_TIME.getCount - before
    }
    assert(r.approximate, r.notes)
    assert(compiles == 0, s"$compiles compilations")
    val statements = engineStatements(plans)
    assert(statements.nonEmpty && statements.forall(Plans.codegenStages(_) == 0), statements)
  }

  test("interpreted: a statement returns the same rows with and without generated code") {
    val sample = wide.catalog.samplesFor("width_t").head.sampleRows
    val off    = Verdict.statementSettings(sample, sessionWidth)
    val on     = off.filter(_._1 == SQLConf.SHUFFLE_PARTITIONS.key)
    assert(off.size == 3 && on.size == 1, off)
    Seq("SELECT g, sum(x) AS s, avg(x) AS a, count(*) AS c FROM width_t GROUP BY g",
        "SELECT g, max(x) AS mx, sum(x) AS s FROM width_t GROUP BY g").foreach { q =>
      val stmt = wide.sql(q).rewrittenSql.get
      def rows(settings: Seq[(String, String)]) =
        Verdict.statementSession(spark, settings).sql(stmt).collect()
          .map(_.toSeq).sortBy(_.head.toString).toSeq
      val (compiled, interpreted) = (rows(on), rows(off))
      assert(compiled.size == interpreted.size && compiled.nonEmpty, q)
      compiled.zip(interpreted).foreach { case (a, b) =>
        assert(a.size == b.size, q)
        a.zip(b).foreach {
          case (x: Double, y: Double) =>
            assert(x == y || math.abs(x - y) <= 1e-9 * math.max(math.abs(x), math.abs(y)),
              s"$q: $x vs $y")
          case (x, y) => assert(x == y, s"$q: $x vs $y")
        }
      }
    }
  }

  private val widthKey = SQLConf.SHUFFLE_PARTITIONS.key

  /** The three keys a rewritten statement sets, as the session reads them. */
  private def sessionKeys: Seq[Option[String]] = {
    val all = spark.conf.getAll
    Seq(widthKey, wholeStageKey, factoryKey).map(all.get)
  }

  /** Runs `body` with whole-stage code generation set explicitly for the
    * session, as the width is, and the factory mode unset. */
  private def withSessionKeys(body: Seq[Option[String]] => Unit): Unit = {
    spark.conf.set(wholeStageKey, "true")
    try {
      val before = sessionKeys
      assert(before == Seq(Some(sessionWidth.toString), Some("true"), None))
      body(before)
    } finally spark.conf.unset(wholeStageKey)
  }

  /** Runs `body(i)` on `n` threads at once and rethrows the first failure. */
  private def concurrently(n: Int)(body: Int => Unit): Unit = {
    val failures = new ConcurrentLinkedQueue[Throwable]
    val threads = (0 until n).map { i =>
      new Thread(() => try body(i) catch { case t: Throwable => failures.add(t) })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    failures.asScala.headOption.foreach(t => throw t)
  }

  test("statement session: settings on the clone; the caller's keys unchanged") {
    withSessionKeys { before =>
      val session = Verdict.statementSession(spark, Verdict.statementSettings(1L, sessionWidth))
      val all     = session.conf.getAll
      assert(Seq(widthKey, wholeStageKey, factoryKey).map(all.get) ==
        Seq(Some("1"), Some("false"), Some("NO_CODEGEN")))
      assert(session.table("width_t").count() == 60001, "the clone reads the session's temp views")
      assert(sessionKeys == before)
      assert(wide.sql("SELECT g, sum(x) AS s FROM width_t GROUP BY g").approximate)
      assert(sessionKeys == before)
      // a rewritten statement that throws: its sample's view is gone
      val v    = tinyVerdict("throwing_t", VerdictConfig(budgetFraction = 1.0, tau = 1.0))
      spark.catalog.dropTempView(v.catalog.samplesFor("throwing_t").head.sampleTable)
      intercept[Exception](v.sql("SELECT g, sum(x) AS s FROM throwing_t GROUP BY g"))
      assert(sessionKeys == before)
    }
  }

  // ------------------------------------------------------ concurrent callers --

  private val concurrentQuery = "SELECT g, sum(x) AS s FROM width_t GROUP BY g"

  test("concurrent callers: the session's keys read what they read before") {
    withSessionKeys { before =>
      concurrently(2)(_ => (1 to 20).foreach(_ => assert(wide.sql(concurrentQuery).approximate)))
      assert(sessionKeys == before)
    }
  }

  test("concurrent callers: an exact query on another thread keeps its settings") {
    val stop   = new AtomicBoolean(false)
    val looped = new AtomicInteger
    concurrently(2) {
      case 0 =>
        while (!stop.get) { wide.sql(concurrentQuery).df.collect(); looped.incrementAndGet() }
      case _ =>
        try {
          val deadline = System.nanoTime() + 60L * 1000 * 1000 * 1000
          while (looped.get == 0) {
            assert(System.nanoTime() < deadline, "no Verdict query finished")
            Thread.sleep(10)
          }
          (1 to 20).foreach { i =>
            val exact = spark.sql(concurrentQuery)
            exact.collect()
            val plan = exact.queryExecution.executedPlan
            assert(Plans.widths(plan).nonEmpty && Plans.widths(plan).forall(_ == sessionWidth),
              s"run $i: ${Plans.widths(plan)}")
            assert(Plans.codegenStages(plan) > 0, s"run $i: $plan")
          }
        } finally stop.set(true)
    }
    assert(looped.get > 0)
  }

  test("concurrent callers never share a query seed") {
    val seeds = new ConcurrentLinkedQueue[Seq[String]]
    concurrently(2)(_ => (1 to 20).foreach { _ =>
      val sql = wide.sql(concurrentQuery).rewrittenSql.get
      seeds.add("""rand\((-?\d+)\)""".r.findAllMatchIn(sql).map(_.group(1)).toSeq)
    })
    val all = seeds.asScala.toSeq
    assert(all.size == 40 && all.forall(_.size == 1), all)
    assert(all.flatten.distinct.size == 40, all.flatten.sorted)
  }
}
