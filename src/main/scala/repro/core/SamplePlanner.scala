package repro.core

import repro.core.Ast._

/** Sample planning (Appendix E): choose, per aggregate function, the set of
  * sample tables minimizing approximation error within an I/O budget.
  *
  * A *candidate plan* maps each aggregate to one table-choice per source;
  * plans whose aggregates share choices are *consolidated* so those
  * aggregates are computed in one pass. Each consolidated plan gets
  *   score = sqrt(mean effective sampling ratio) * advantage factors
  *   cost  = total tuples across its (aggregate-group -> samples) entries
  * and the highest-scoring plan within budget wins, the cheaper on a tie.
  * If none fits (or the grouping attributes are too high-cardinality for
  * sampling to help), the planner falls back to base tables — i.e., no AQP,
  * reproducing the paper's behaviour on tq-3/tq-8/tq-15.
  */
object SamplePlanner {

  /** One way to read a source: the base table itself or a prepared sample. */
  sealed trait TableChoice {
    def scanTable: String
    def ratio: Double
    def rows: Long
    def sample: Option[SampleInfo]
  }
  final case class UseBase(name: String, override val rows: Long) extends TableChoice {
    val scanTable = name; val ratio = 1.0; val sample = None
  }
  final case class UseSample(info: SampleInfo) extends TableChoice {
    def scanTable = info.sampleTable
    def ratio     = info.ratio
    def rows      = info.sampleRows
    def sample    = Some(info)
  }

  /** Per-source planning input. */
  final case class SourceInfo(
      alias: String,
      baseTable: String,
      baseRows: Long,
      samples: Seq[SampleInfo],
      /** join-key columns this source contributes to equi-joins */
      joinCols: Set[String],
      /** cardinalities of (some) columns, for feasibility + Appx F */
      cardinalities: Map[String, Long],
      /** schema of the source, for resolving aggregate-argument ownership */
      columns: Seq[String] = Seq.empty) {
    def hasColumn(c: String): Boolean = columns.exists(_.equalsIgnoreCase(c))
  }

  /** Constraint class of an aggregate: all aggregates in a class share the
    * same candidate choices, so classes are the unit of enumeration
    * (equivalent to the paper's consolidation, done eagerly).
    */
  sealed trait AggClass
  case object MeanLike                          extends AggClass
  final case class DistinctOn(col: String)      extends AggClass
  case object QuantileLike                      extends AggClass

  def classOf(call: AggCall): AggClass = call.func match {
    case AggFuncType.CountDistinct  => DistinctOn(call.argSql.get.split('.').last)
    case _: AggFuncType.Percentile  => QuantileLike
    case _                          => MeanLike
  }

  /** One consolidated plan entry: these aggregate indices are computed on
    * this per-alias choice of tables.
    */
  final case class PlanBlock(aggIdxs: Seq[Int], choices: Map[String, TableChoice],
                             effRatio: Double)

  final case class Plan(blocks: Seq[PlanBlock], score: Double, cost: Long) {
    def usesSampling: Boolean = blocks.exists(_.choices.values.exists(_.sample.isDefined))
  }

  final case class Config(
      /** I/O budget as a fraction of total base rows (paper default 2%). */
      budgetFraction: Double = 0.02,
      /** heuristic: keep only k best samples per source at joins (Appx E.2). */
      k: Int = 10)

  /** Score multiplier when a stratified sample covers the group-by. */
  val StratifiedAdvantage = 1.5

  /** AQP is declined when the expected sampled tuples per group fall below. */
  val MinRowsPerGroup = 10.0

  /** Number of raw candidate plans (pre-consolidation), as enumerated in
    * Appendix E.1 — product over aggregates of per-aggregate choice counts.
    * Exposed for the Table 3 reproduction test (2x2 per agg, 3 aggs -> 64).
    */
  def rawCandidateCount(aggs: Seq[AggCall], sources: Seq[SourceInfo],
                        groupCols: Seq[String], cfg: Config = Config()): Long =
    aggs.map(a => combosFor(classOf(a), sources, cfg).size.toLong).product

  /** All valid per-source choice combinations for an aggregate class. */
  def combosFor(cls: AggClass, sources: Seq[SourceInfo],
                cfg: Config): Seq[Map[String, TableChoice]] = {
    val isJoin = sources.size > 1
    val perSource: Seq[Seq[TableChoice]] = sources.map { s =>
      val base: TableChoice = UseBase(s.baseTable, s.baseRows)
      val valid = s.samples.filter(validFor(cls, s, isJoin)).map(UseSample.apply)
      val pruned =
        if (isJoin && valid.size > cfg.k)
          valid.sortBy(c => -c.info.sampleRows).take(cfg.k)
        else valid
      base +: pruned.map(c => c: TableChoice)
    }
    cross(perSource.map(_.toList).toList)
      .map(choices => sources.map(_.alias).zip(choices).toMap)
      .filter(combo => jointlyValid(cls, combo, sources))
  }

  /** Per-source validity of a sample for an aggregate class. */
  private def validFor(cls: AggClass, s: SourceInfo, isJoin: Boolean)
      (info: SampleInfo): Boolean = cls match {
    case DistinctOn(col) =>
      // count-distinct needs the domain-partitioning property: the source
      // owning the distinct column may only use a hashed sample on exactly
      // that column; other sources may use any sample.
      if (s.hasColumn(col) || s.columns.isEmpty)
        info.sampleType == SampleType.Hashed &&
          info.columns.map(_.toLowerCase) == Seq(col.toLowerCase)
      else true
    case QuantileLike => info.sampleType == SampleType.Uniform
    case MeanLike     => true
  }

  /** Joint validity across the join (Section 5.1's cardinality rules):
    * at most one uniform sample per join; hashed samples only on their join
    * columns (so hashed-hashed pairs share inclusion events).
    */
  private def jointlyValid(cls: AggClass, combo: Map[String, TableChoice],
                           sources: Seq[SourceInfo]): Boolean = {
    if (sources.size <= 1) return true
    val uniformCount = combo.values.count {
      case UseSample(i) => i.sampleType == SampleType.Uniform
      case _            => false
    }
    if (uniformCount > 1) return false
    sources.forall { s =>
      combo(s.alias) match {
        case UseSample(i) if i.sampleType == SampleType.Hashed =>
          i.columns.map(_.toLowerCase).toSet.subsetOf(s.joinCols.map(_.toLowerCase))
        case _ => true
      }
    }
  }

  /** Effective sampling ratio of a choice combo: product of ratios, except
    * hashed samples joined on their hash columns, which share inclusion
    * events and contribute min(tau) once (Appendix E.1).
    */
  def effectiveRatio(combo: Map[String, TableChoice]): Double = {
    val (hashed, rest) = combo.values.partition {
      case UseSample(i) => i.sampleType == SampleType.Hashed
      case _            => false
    }
    val hashedPart = if (hashed.isEmpty) 1.0 else hashed.map(_.ratio).min
    hashedPart * rest.map(_.ratio).product
  }

  /** Plan the query. Returns None when AQP is infeasible (high-cardinality
    * grouping or nothing within budget): caller runs the original query.
    */
  def plan(aggs: Seq[AggCall], sources: Seq[SourceInfo], groupCols: Seq[String],
           cfg: Config = Config()): Option[Plan] = {
    if (aggs.isEmpty || sources.isEmpty) return None
    if (!groupingFeasible(sources, groupCols)) return None

    val classes = aggs.map(classOf).distinct
    val perClass: Map[AggClass, Seq[Map[String, TableChoice]]] =
      classes.map(c => c -> combosFor(c, sources, cfg)).toMap
    if (perClass.values.exists(_.isEmpty)) return None

    val classPlans = cross(classes.map(c => perClass(c).toList).toList)
    val budget = (sources.map(_.baseRows).sum * cfg.budgetFraction *
      math.max(1, aggs.size)).toLong

    val candidates = classPlans.map { picks =>
      val byClass = classes.zip(picks).toMap
      // consolidate: aggregates whose class picked the same combo merge
      val blocks = aggs.indices
        .groupBy(i => byClass(classOf(aggs(i))))
        .map { case (combo, idxs) =>
          PlanBlock(idxs.toSeq.sorted, combo, effectiveRatio(combo))
        }
        .toSeq.sortBy(_.aggIdxs.head)
      val cost  = blocks.map(_.choices.values.map(_.rows).sum).sum
      val score = planScore(blocks, groupCols)
      Plan(blocks, score, cost)
    }

    val within = candidates.filter(p => p.usesSampling && p.cost <= budget)
    if (within.isEmpty) None else Some(within.maxBy(p => (p.score, -p.cost)))
  }

  /** score = sqrt(mean effective ratio) * stratified-advantage factor. */
  private def planScore(blocks: Seq[PlanBlock], groupCols: Seq[String]): Double = {
    val meanRatio = blocks.map(_.effRatio).sum / blocks.size
    val groupSet  = groupCols.map(_.split('.').last.toLowerCase).toSet
    val advantage = blocks.flatMap(_.choices.values).collectFirst {
      case UseSample(i) if i.sampleType == SampleType.Stratified &&
        groupSet.nonEmpty && groupSet.subsetOf(i.columns.map(_.toLowerCase).toSet) =>
        StratifiedAdvantage
    }.getOrElse(1.0)
    math.sqrt(meanRatio) * advantage
  }

  /** AQP is declared infeasible when the expected number of sampled tuples
    * per output group is too small for meaningful estimates (the paper's
    * "high cardinality of the grouping attributes" rule for tq-3/8/15).
    */
  def groupingFeasible(sources: Seq[SourceInfo], groupCols: Seq[String]): Boolean = {
    if (groupCols.isEmpty) return true
    val cards = groupCols.map { g =>
      val c = g.split('.').last.toLowerCase
      sources.flatMap(_.cardinalities.collectFirst {
        case (k, v) if k.toLowerCase == c => v
      }).headOption.getOrElse(1L)
    }
    val nGroups = cards.map(_.toDouble).product
    val sampledRows = sources.map { s =>
      s.samples.map(_.sampleRows.toDouble).maxOption.getOrElse(s.baseRows.toDouble)
    }.min
    sampledRows / math.max(1.0, nGroups) >= MinRowsPerGroup
  }

  private def cross[A](xs: List[List[A]]): List[List[A]] = xs match {
    case Nil          => List(Nil)
    case head :: tail => for (h <- head; t <- cross(tail)) yield h :: t
  }
}
