package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{DataFrame, SessionClone, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.internal.SQLConf

import repro.core.Ast._
import repro.core.SamplePlanner._
import repro.util.Stats

import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Per-base-table statistics gathered at registration time (row count and
  * column cardinalities) — used by the default sampling policy (Appendix F)
  * and the planner's feasibility rule.
  */
final case class TableStats(rows: Long, cardinalities: Map[String, Long])

/** Configuration knobs exposed to the user (Section 2.4). */
final case class VerdictConfig(
    /** I/O budget: max fraction of a table scanned by AQP (default 2%). */
    budgetFraction: Double = 0.02,
    /** offline sampling parameter tau (default 1%). */
    tau: Double = 0.01,
    /** optional minimum accuracy (max relative error) enforced via HAC:
      * when an estimated error violates it, rerun exactly. */
    accuracyRequirement: Option[Double] = None,
    /** include *_err columns in the output (off = transparent mode). */
    errorColumns: Boolean = true,
    seed: Long = 42) {
  def plannerConfig: SamplePlanner.Config = SamplePlanner.Config(budgetFraction)
}

/** Result of a Verdict query: the answer DataFrame, whether it was
  * approximated, and bookkeeping for inspection/tests. An approximate
  * answer holds the rows its rewritten statement returned, as a local
  * DataFrame; a pass-through answer is the lazy exact query.
  */
final case class VerdictResult(
    df: DataFrame,
    approximate: Boolean,
    rewrittenSql: Option[String],
    errColumns: Map[String, String],
    notes: String = "")

/** The VerdictDB middleware (Figure 1): intercepts SQL, rewrites supported
  * aggregate queries onto prepared samples, executes only standard SQL on
  * the engine, and post-processes estimates + errors. Unsupported queries
  * pass through unchanged.
  */
final class Verdict(val spark: SparkSession,
                    val config: VerdictConfig = VerdictConfig()) {

  val catalog                  = new SampleCatalog
  private val stats            = mutable.LinkedHashMap.empty[String, TableStats]
  private val queryCounter     = new AtomicLong

  // ------------------------------------------------------------- sample prep

  /** Register a base table (as a temp view) and gather its stats in one
    * pass: the row count and each column's approximate cardinality. A
    * cardinality is read off a DataSketches HLL sketch (lgK 12, about 1.6%
    * relative standard error) of the column's 64-bit hash; NULL is hashed
    * to NULL, so it is not counted. */
  def registerTable(name: String, df: DataFrame): TableStats = {
    df.createOrReplaceTempView(name)
    val distinct = df.columns.toSeq.map { c =>
      hll_sketch_estimate(hll_sketch_agg(when(col(c).isNotNull, xxhash64(col(c)))))
    }
    val row = df.agg(count(lit(1)), distinct: _*).head()
    val s = TableStats(row.getLong(0),
      df.columns.zipWithIndex.map { case (c, i) => c.toLowerCase -> row.getLong(i + 1) }.toMap)
    stats(name.toLowerCase) = s
    s
  }

  def tableStats(name: String): Option[TableStats] = stats.get(name.toLowerCase)

  /** Create and register one sample of the given type. */
  def createSample(baseTable: String, sampleType: SampleType,
                   columns: Seq[String] = Seq.empty,
                   tau: Double = config.tau): SampleInfo = {
    val (sdf, info) = SampleCreator.create(spark.table(baseTable), baseTable, sampleType,
      columns, tau, Some(config.seed))
    SampleCreator.registerSample(spark, catalog, sdf, info)
    info
  }

  /** Appendix F's default policy: uniform always; hashed samples on the
    * two highest-cardinality columns (card > 1% of |T|); stratified samples
    * on the two lowest-cardinality columns (card < 1% of |T|). Each sample
    * holds at least `config.tau` of the table and aims at 10 M rows.
    */
  def createDefaultSamples(baseTable: String): Seq[SampleInfo] = {
    val st  = stats.getOrElse(baseTable.toLowerCase,
      registerTable(baseTable, spark.table(baseTable)))
    val tau = math.min(1.0, math.max(config.tau, 10_000_000.0 / math.max(1L, st.rows)))
    val created = Seq.newBuilder[SampleInfo]
    created += createSample(baseTable, SampleType.Uniform, tau = tau)
    val threshold = 0.01 * st.rows
    val high = st.cardinalities.toSeq.filter(_._2 > threshold)
      .sortBy(-_._2).take(2)
    val low = st.cardinalities.toSeq.filter(c => c._2 < threshold && c._2 > 1)
      .sortBy(_._2).take(2)
    high.foreach { case (c, _) =>
      created += createSample(baseTable, SampleType.Hashed, Seq(c), tau)
    }
    low.foreach { case (c, _) =>
      created += createSample(baseTable, SampleType.Stratified, Seq(c), tau)
    }
    created.result()
  }

  // ---------------------------------------------------------- query rewrite

  private def schemaLookup: CatalystConverter.SchemaLookup = { table =>
    try Some(spark.table(table).columns.toSeq)
    catch { case _: Exception => None }
  }

  /** Parse a query into the middleware AST, if supported. */
  def parse(sql: String): Either[String, FlatQuery] = {
    val plan =
      try spark.sessionState.sqlParser.parsePlan(sql)
      catch { case e: Exception => return scala.Left(s"parse error: ${e.getMessage}") }
    CatalystConverter.convert(plan, schemaLookup)
  }

  /** Main entry: run `sql` approximately when supported, exactly otherwise.
    * A supported query becomes one rewritten statement that runs once.
    */
  def sql(query: String): VerdictResult = {
    val qseed = config.seed + 7919 * queryCounter.incrementAndGet()
    parse(query) match {
      case scala.Left(reason) => passthrough(query, s"unsupported: $reason")
      case scala.Right(q) if q.allAggs.isEmpty => passthrough(query, "no aggregates")
      case scala.Right(q) =>
        // Section 2.2: extreme (min/max) items are computed exactly, the
        // mean-like ones from samples
        val (extreme, meanLike) = q.aggItems.partition(_.expr.aggs.exists(_.func.isExtreme))
        if (meanLike.isEmpty) passthrough(query, "extreme-only aggregates")
        else if (extreme.exists(_.expr.aggs.exists(!_.func.isExtreme)))
          passthrough(query, "mixed extreme/mean-like item")
        else approximate(query, q, extreme, qseed)
    }
  }

  private def passthrough(query: String, note: String): VerdictResult =
    VerdictResult(spark.sql(query), approximate = false, None, Map.empty, note)

  private def approximate(query: String, q: FlatQuery, extreme: Seq[SelectItem],
                          qseed: Long): VerdictResult = {
    val sampled = q.copy(select = q.select.filterNot(extreme.contains))
    // a nested query is planned on its inner query (Section 5.2)
    val unit = sampled.from match { case Seq(DerivedTable(inner, _)) => inner; case _ => sampled }
    val rewritten = for {
      sources <- planningSources(unit)
      plan    <- SamplePlanner.plan(unit.allAggs, sources, unit.groupBy.map(_.sqlText),
                   config.plannerConfig)
                   .toRight("no feasible sample plan")
      rw      <- Rewriter.rewritePlan(sampled, extreme, plan.blocks, qseed)
                   .left.map(reason => s"rewrite failed: $reason")
    } yield (plan, rw)
    rewritten.fold(passthrough(query, _), { case (plan, rw) =>
      // the exact min/max part reads its base tables whole
      val rows = plan.cost + (if (extreme.isEmpty) 0L else baseRows(q))
      run(query, q, rw, rows, if (extreme.isEmpty) "" else "decomposed extreme statistics")
    })
  }

  private def baseRows(q: FlatQuery): Long = q.from.map {
    case BaseTable(name, _)     => tableStats(name).fold(0L)(_.rows)
    case DerivedTable(inner, _) => baseRows(inner)
  }.sum

  /** Planner inputs for the base tables of `unit`, the block that reads the
    * sampled sources.
    */
  private def planningSources(unit: FlatQuery): Either[String, Seq[SourceInfo]] = {
    val infos = unit.from.collect { case s: BaseTable =>
      val st = stats.get(s.name.toLowerCase)
      val cols =
        try spark.table(s.name).columns.toSeq catch { case _: Exception => Seq.empty[String] }
      SourceInfo(s.alias, s.name, st.map(_.rows).getOrElse(0L), catalog.samplesFor(s.name),
        unit.joinConds.flatMap(_.colFor(s.alias)).toSet,
        st.map(_.cardinalities).getOrElse(Map.empty), cols)
    }
    if (infos.isEmpty) scala.Left("no base tables")
    else if (infos.forall(_.samples.isEmpty)) scala.Left("no samples prepared")
    else scala.Right(infos)
  }

  /** Runs the rewritten statement once, on a session of its own with the
    * settings of the `rows` it reads (`Verdict.statementSession`); the
    * answer is its rows as a local DataFrame: the query's columns, then the
    * error columns when configured. With an accuracy requirement, HAC
    * (Section 2.4) checks the same rows: an estimated relative error over
    * it, or an estimate without error (NULL or NaN, as from a group whose
    * rows all fall in one subsample), reruns the original query exactly. */
  private def run(query: String, q: FlatQuery, rw: Rewriter.Rewritten, rows: Long,
                  notes: String): VerdictResult = {
    val settings =
      Verdict.statementSettings(rows, spark.conf.get(SQLConf.SHUFFLE_PARTITIONS.key).toInt)
    val session   = Verdict.statementSession(spark, settings)
    val stmt      = session.sql(rw.sql)
    val collected = try stmt.collect() finally SessionClone.release(session)
    def num(v: Any) = Option(v).map(_.toString.toDouble)
    import Verdict.Z
    val violated = config.accuracyRequirement.filter(maxRelErr => collected.exists(row =>
      rw.errColumns.exists { case (estCol, errCol) =>
        (num(row.getAs[Any](estCol)), num(row.getAs[Any](errCol))) match {
          case (Some(e), Some(s)) if !s.isNaN => e != 0.0 && Z * s / math.abs(e) > maxRelErr
          case (Some(_), _)                   => true // no error backs the estimate
          case _                              => false
        }
      }))
    violated match {
      case Some(maxRelErr) => passthrough(query, s"HAC violated (> $maxRelErr rel err): exact rerun")
      case None =>
        val errCols = if (config.errorColumns) rw.errColumns else Map.empty[String, String]
        val out     = q.select.map(_.alias) ++ q.select.flatMap(i => errCols.get(i.alias))
        val answer  = spark.createDataFrame(collected.toSeq.asJava, stmt.schema)
        VerdictResult(answer.select(out.map(col): _*), approximate = true, Some(rw.sql),
          errCols, notes)
    }
  }
}

object Verdict {

  /** The confidence level of every interval, HAC's check included, and its
    * two-sided standard-normal quantile (1.96). */
  val Confidence = 0.95
  val Z: Double  = Stats.normalQuantile(1 - (1 - Confidence) / 2)

  /** Rows one shuffle partition of a rewritten statement takes: a few
    * thousand sample rows cost more to schedule across the session's
    * partitions than to aggregate in one (timings in DESIGN.md §4). */
  val RowsPerPartition = 25000L

  /** The shuffle width of a statement that reads `rows` rows: one
    * partition per `RowsPerPartition` rows, within 1 and the session's. */
  def shuffleWidth(rows: Long, sessionWidth: Int): Int =
    math.max(1L, math.min(sessionWidth.toLong, (rows - 1) / RowsPerPartition + 1)).toInt

  /** Rows up to which a rewritten statement runs without generated code:
    * a fresh `rand` seed is a new class, and a workload's statements
    * overflow Spark's static cache of 100 classes, so each run would compile
    * at about 10 ms a class, while up to a few hundred thousand rows
    * interpreting runs about as fast (timings in DESIGN.md §4). */
  val InterpretedRows = 500000L

  /** The settings of a statement that reads `rows` rows: its shuffle width
    * and, at most `InterpretedRows` rows, no generated code: whole-stage
    * code generation off, and the internal factory mode that interprets
    * each expression (a Spark without that key ignores it). */
  def statementSettings(rows: Long, sessionWidth: Int): Seq[(String, String)] =
    (SQLConf.SHUFFLE_PARTITIONS.key -> shuffleWidth(rows, sessionWidth).toString) +:
      (if (rows > InterpretedRows) Nil
       else Seq(SQLConf.WHOLESTAGE_CODEGEN_ENABLED.key -> "false",
                "spark.sql.codegen.factoryMode"         -> "NO_CODEGEN"))

  /** A clone of `spark` (its conf, temp views, functions and listeners)
    * with `settings` set on the clone only: no statement on `spark` sees
    * them, whichever thread runs it. */
  def statementSession(spark: SparkSession, settings: Seq[(String, String)]): SparkSession = {
    val session = SessionClone(spark)
    settings.foreach { case (k, v) => session.conf.set(k, v) }
    session
  }
}
