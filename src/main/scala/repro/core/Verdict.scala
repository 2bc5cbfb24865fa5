package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

import repro.core.Ast._
import repro.core.SamplePlanner._
import repro.util.Stats

import scala.collection.mutable

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
    /** confidence level for intervals and HAC checks. */
    confidence: Double = 0.95,
    /** include *_err columns in the output (off = transparent mode). */
    errorColumns: Boolean = true,
    /** sample-planner settings; its budgetFraction is replaced by the one above. */
    plannerConfig: SamplePlanner.Config = SamplePlanner.Config(),
    seed: Long = 42)

/** Result of a Verdict query: the answer DataFrame, whether it was
  * approximated, and bookkeeping for inspection/tests.
  */
final case class VerdictResult(
    df: DataFrame,
    approximate: Boolean,
    rewrittenSql: Option[String],
    errColumns: Map[String, String],
    notes: String = "") {
  /** 1-alpha confidence half-width multiplier applied to *_err columns. */
  def confidenceInterval(alpha: Double = 0.05): Double =
    Stats.normalQuantile(1 - alpha / 2)
}

/** The VerdictDB middleware (Figure 1): intercepts SQL, rewrites supported
  * aggregate queries onto prepared samples, executes only standard SQL on
  * the engine, and post-processes estimates + errors. Unsupported queries
  * pass through unchanged.
  */
final class Verdict(val spark: SparkSession,
                    val config: VerdictConfig = VerdictConfig()) {

  val catalog                  = new SampleCatalog
  private val stats            = mutable.LinkedHashMap.empty[String, TableStats]
  private var queryCounter     = 0L

  // ------------------------------------------------------------- sample prep

  /** Register a base table (as a temp view) and gather its stats. */
  def registerTable(name: String, df: DataFrame): TableStats = {
    df.createOrReplaceTempView(name)
    val rows  = df.count()
    val cards = approxCardinalities(df)
    val s = TableStats(rows, cards)
    stats(name.toLowerCase) = s
    s
  }

  private def approxCardinalities(df: DataFrame): Map[String, Long] = {
    val aggs = df.columns.map(c => approx_count_distinct(col(c)).as(c))
    val row  = df.agg(aggs.head, aggs.tail: _*).head()
    df.columns.zipWithIndex.map { case (c, i) => c.toLowerCase -> row.getLong(i) }.toMap
  }

  def tableStats(name: String): Option[TableStats] = stats.get(name.toLowerCase)

  /** Create and register one sample of the given type. */
  def createSample(baseTable: String, sampleType: SampleType,
                   columns: Seq[String] = Seq.empty,
                   tau: Double = config.tau, cache: Boolean = true): SampleInfo = {
    val (sdf, info) = SampleCreator.create(spark.table(baseTable), baseTable, sampleType,
      columns, tau, Some(config.seed))
    SampleCreator.registerSample(spark, catalog, sdf, info, cache)
    info
  }

  /** Appendix F's default policy: uniform always; hashed samples on the
    * highest-cardinality columns (card > 1% of |T|); stratified samples on
    * the lowest-cardinality columns (card < 1% of |T|).
    */
  def createDefaultSamples(baseTable: String,
                           maxHashed: Int = 2, maxStratified: Int = 2,
                           rowTarget: Long = 10_000_000L): Seq[SampleInfo] = {
    val st  = stats.getOrElse(baseTable.toLowerCase,
      registerTable(baseTable, spark.table(baseTable)))
    val tau = math.min(1.0, math.max(config.tau, rowTarget.toDouble / math.max(1L, st.rows)))
    val created = Seq.newBuilder[SampleInfo]
    created += createSample(baseTable, SampleType.Uniform, tau = tau)
    val threshold = 0.01 * st.rows
    val high = st.cardinalities.toSeq.filter(_._2 > threshold)
      .sortBy(-_._2).take(maxHashed)
    val low = st.cardinalities.toSeq.filter(c => c._2 < threshold && c._2 > 1)
      .sortBy(_._2).take(maxStratified)
    high.foreach { case (c, _) =>
      created += createSample(baseTable, SampleType.Hashed, Seq(c), tau)
    }
    low.foreach { case (c, _) =>
      created += createSample(baseTable, SampleType.Stratified, Seq(c), tau)
    }
    created.result()
  }

  // ---------------------------------------------------------- query rewrite

  private def schemaLookup: CatalystConverter.SchemaLookup = { alias =>
    try Some(spark.table(alias).columns.toSeq)
    catch { case _: Exception => None }
  }

  /** Parse a query into the middleware AST, if supported. */
  def parse(sql: String): Either[String, FlatQuery] = {
    val plan =
      try spark.sessionState.sqlParser.parsePlan(sql)
      catch { case e: Exception => return scala.Left(s"parse error: ${e.getMessage}") }
    CatalystConverter.convert(plan, schemaLookup)
  }

  /** Main entry: run `sql` approximately when supported, exactly otherwise. */
  def sql(query: String): VerdictResult = {
    queryCounter += 1
    val qseed = config.seed + 7919 * queryCounter
    parse(query) match {
      case scala.Left(reason) => passthrough(query, s"unsupported: $reason")
      case scala.Right(q) =>
        if (q.allAggs.isEmpty) passthrough(query, "no aggregates")
        else if (q.hasExtreme) decomposed(query, q, qseed)
        else approximate(query, q, qseed)
    }
  }

  private def passthrough(query: String, note: String): VerdictResult =
    VerdictResult(spark.sql(query), approximate = false, None, Map.empty, note)

  /** Section 2.2: split extreme (min/max) and mean-like aggregates; compute
    * the extreme part exactly and the mean-like part approximately, then
    * join on the grouping columns.
    */
  private def decomposed(query: String, q: FlatQuery, qseed: Long): VerdictResult = {
    val (extremeItems, meanItems) =
      q.aggItems.partition(_.expr.aggs.exists(_.func.isExtreme))
    if (meanItems.isEmpty) return passthrough(query, "extreme-only aggregates")
    if (extremeItems.exists(_.expr.aggs.exists(!_.func.isExtreme)))
      return passthrough(query, "mixed extreme/mean-like item")

    val qExact = q.copy(select = q.plainItems ++ extremeItems,
      having = None, orderBy = Seq.empty, limit = None)
    val qAqp   = q.copy(select = q.plainItems ++ meanItems)
    val exact  = spark.sql(qExact.sqlExact)
    val approx = approximate(query, qAqp, qseed)
    if (!approx.approximate) return passthrough(query, "AQP infeasible for mean-like part")

    val groupCols = q.plainItems.map(_.alias)
    val joined =
      if (groupCols.isEmpty) approx.df.crossJoin(exact)
      else approx.df.join(exact, groupCols)
    val outCols = q.select.map(_.alias) ++ approx.errColumns.values.toSeq
    VerdictResult(joined.select(outCols.map(col): _*), approximate = true,
      approx.rewrittenSql, approx.errColumns, "decomposed extreme statistics")
  }

  private def approximate(query: String, q: FlatQuery, qseed: Long): VerdictResult = {
    val sourcesE = planningSources(q)
    if (sourcesE.isLeft) return passthrough(query, sourcesE.swap.toOption.get)
    val sources = sourcesE.toOption.get

    val groupCols = q.groupBy.map(_.sqlText)
    val planOpt = SamplePlanner.plan(q.allAggs, sources, groupCols,
      config.plannerConfig.copy(budgetFraction = config.budgetFraction))
    planOpt match {
      case None => passthrough(query, "no feasible sample plan")
      case Some(plan) =>
        val result = executePlan(q, plan, qseed)
        result match {
          case scala.Left(reason) => passthrough(query, s"rewrite failed: $reason")
          case scala.Right(r)     => hacCheck(query, r)
        }
    }
  }

  /** Build planner inputs for the query's sources. For a nested query the
    * planning unit is the inner query's base tables.
    */
  private def planningSources(q: FlatQuery): Either[String, Seq[SourceInfo]] = {
    val (baseSources, joinConds) = q.from match {
      case Seq(DerivedTable(inner, _)) =>
        (inner.from.collect { case b: BaseTable => b }, inner.joinConds)
      case srcs => (srcs.collect { case b: BaseTable => b }, q.joinConds)
    }
    if (baseSources.isEmpty) return scala.Left("no base tables")
    val infos = baseSources.map { s =>
      val st = stats.get(s.name.toLowerCase)
      val joinCols = joinConds.flatMap(_.colFor(s.alias)).toSet
      val cols =
        try spark.table(s.name).columns.toSeq catch { case _: Exception => Seq.empty[String] }
      SourceInfo(s.alias, s.name,
        st.map(_.rows).getOrElse(0L),
        catalog.samplesFor(s.name),
        joinCols,
        st.map(_.cardinalities).getOrElse(Map.empty),
        cols)
    }
    if (infos.forall(_.samples.isEmpty)) scala.Left("no samples prepared")
    else scala.Right(infos)
  }

  /** Execute each consolidated block's rewritten SQL and join the results
    * on the grouping columns.
    */
  private def executePlan(q: FlatQuery, plan: Plan,
                          qseed: Long): Either[String, VerdictResult] = {
    val aggs = q.allAggs
    // map each block to the select items whose aggregates it owns
    val itemsOf: Map[Int, Seq[SelectItem]] = plan.blocks.zipWithIndex.map {
      case (blk, bi) =>
        val blockAggs = blk.aggIdxs.map(aggs)
        bi -> q.aggItems.filter(it => it.expr.aggs.forall(blockAggs.contains))
    }.toMap
    // items whose aggregates straddle blocks are unsupported; fall back
    val covered = itemsOf.values.flatten.toSet
    if (!q.aggItems.forall(covered.contains))
      return scala.Left("select item mixes aggregates from different sample plans")

    var acc: Option[(DataFrame, Map[String, String], Seq[String])] = None
    for ((blk, bi) <- plan.blocks.zipWithIndex) {
      val sub = q.copy(select = q.plainItems ++ itemsOf(bi),
        orderBy = if (plan.blocks.size == 1) q.orderBy else Seq.empty,
        limit = if (plan.blocks.size == 1) q.limit else None)
      Rewriter.rewrite(sub, blk.choices, qseed + bi) match {
        case scala.Left(r) => return scala.Left(r)
        case scala.Right(rw) =>
          val df = spark.sql(rw.sql)
          acc = acc match {
            case None => Some((df, rw.errColumns, Seq(rw.sql)))
            case Some((prev, errs, sqls)) =>
              val groupCols = q.plainItems.map(_.alias)
              val joined = if (groupCols.isEmpty) prev.crossJoin(df)
                           else prev.join(df, groupCols)
              Some((joined, errs ++ rw.errColumns, sqls :+ rw.sql))
          }
      }
    }
    val (df0, errCols, sqls) = acc.get
    // project to original column order (+ error columns when configured)
    val ordered = q.select.map(_.alias) ++
      (if (config.errorColumns) q.select.flatMap(i => errCols.get(i.alias)) else Seq.empty)
    val df = df0.select(ordered.map(col): _*)
    scala.Right(VerdictResult(df, approximate = true, Some(sqls.mkString(";\n")),
      if (config.errorColumns) errCols else Map.empty))
  }

  /** High-level Accuracy Contract (Section 2.4): if the user set an accuracy
    * requirement and any estimated relative error violates it, rerun the
    * original query exactly.
    */
  private def hacCheck(query: String, r: VerdictResult): VerdictResult =
    config.accuracyRequirement match {
      case None => r
      case Some(maxRelErr) =>
        val z = Stats.normalQuantile(1 - (1 - config.confidence) / 2)
        val rows = r.df.collect()
        val violated = rows.exists { row =>
          r.errColumns.exists { case (estCol, errCol) =>
            val est = Option(row.getAs[Any](estCol)).map(_.toString.toDouble)
            val err = Option(row.getAs[Any](errCol)).map(_.toString.toDouble)
            (est, err) match {
              case (Some(e), Some(s)) if e != 0.0 => z * s / math.abs(e) > maxRelErr
              case _                              => false
            }
          }
        }
        if (violated)
          passthrough(query, s"HAC violated (> $maxRelErr rel err): exact rerun")
        else r
    }
}
