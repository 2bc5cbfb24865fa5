package repro.core

import repro.core.Ast._
import repro.core.CellStats.Stat
import repro.core.SamplePlanner.{PlanBlock, TableChoice, UseBase, UseSample}
import repro.core.VariationalSubsampling._

/** The AQP Rewriter (Sections 4, 5 and Appendix G).
  *
  * Given a supported query and a per-source table choice, emits a single
  * standard-SQL statement that the engine can execute to produce, per output
  * group, both the unbiased (Horvitz–Thompson) point estimate and the
  * variational-subsampling error estimate. Every statement is built on one
  * cell table, the variational table of the paper's Query 9:
  *
  *  L1  per-source subqueries: the sample table, aliased by the original
  *      table name, augmented with a `vsid` subsample-id column, in the
  *      query's own FROM and WHERE (`FlatQuery.fromWhereSql`)
  *  L2  GROUP BY (group-cols, combined-sid): one row per cell with its
  *      sufficient statistics (`CellStats`) and its size `vsub_size`
  *
  * A flat query groups the cells again by the group columns: point
  * estimates from the pooled statistics, error from the spread of the
  * per-cell estimates (`VariationalSubsampling.errSql`).
  *
  * A sample's sid follows its sampling unit (`unitSidExpr`): a row for a
  * uniform or stratified sample, a hash key for a hashed one. Joined
  * variational tables get their sid reassigned via Theorem 4's h(i, j) over
  * the independently drawn units, so a single join suffices (Section 5.1).
  * Aggregate-in-FROM queries use the Query 7 `GROUP BY ..., sid` pushdown (Section 5.2) on the
  * same cell table.
  *
  * A query whose plan has several blocks (Appendix E), or min/max items
  * (Section 2.2), is still one statement: `rewritePlan` joins its parts on
  * the group keys.
  */
object Rewriter {

  /** Suffix for error columns in the rewritten output. */
  val ErrSuffix = "_err"

  final case class Rewritten(sql: String,
                             /** output column -> error column, per aggregate item */
                             errColumns: Map[String, String],
                             /** number of subsamples used (the largest of a
                               * query's sampled parts) */
                             b: Int)

  private final case class Unsupported(reason: String) extends RuntimeException(reason)
  private def bail(reason: String): Nothing = throw Unsupported(reason)

  def rewrite(q: FlatQuery, choices: Map[String, TableChoice],
              seed: Long): Either[String, Rewritten] =
    try scala.Right(rewriteBlock(q, choices, seed))
    catch { case Unsupported(r) => scala.Left(r) }

  private def rewriteBlock(q: FlatQuery, choices: Map[String, TableChoice],
                           seed: Long): Rewritten = q.from match {
    case Seq(DerivedTable(inner, alias)) => rewriteNested(q, inner, alias, choices, seed)
    case srcs if srcs.forall(_.isInstanceOf[BaseTable]) => rewriteFlat(q, choices, seed)
    case _ => bail("unsupported source mix (derived table joined with others)")
  }

  // ------------------------------------------------------------ whole plan --

  /** Renders a query's whole plan as one statement. Each plan block answers
    * the aggregate items of `q` whose calls it owns (its `aggIdxs` index the
    * planned query's `allAggs`, the inner query's if `q` is nested); the
    * `exact` items (Section 2.2's min/max) form one more part, over base
    * tables. A single part is that part's `rewrite`. Otherwise a part that
    * reads a sample is rewritten, a part of base tables only runs exactly,
    * and the parts are joined null-safe on the group keys (crossed for a
    * global query), with ORDER BY and LIMIT applied once to the joined rows.
    */
  def rewritePlan(q: FlatQuery, exact: Seq[SelectItem], blocks: Seq[PlanBlock],
                  seed: Long): Either[String, Rewritten] =
    try {
      val sampled: Seq[(FlatQuery, Map[String, TableChoice])] = q.from match {
        case Seq(_: DerivedTable) =>
          if (blocks.size > 1) bail("the inner query of a nested query needs several sample plans")
          Seq(q -> blocks.head.choices)
        case _ =>
          val aggs  = q.allAggs
          val items = blocks.map(blk =>
            q.aggItems.filter(_.expr.aggs.forall(blk.aggIdxs.map(aggs).contains)))
          if (!q.aggItems.forall(items.flatten.contains))
            bail("select item mixes aggregates from different sample plans")
          blocks.zip(items).map { case (blk, its) =>
            q.copy(select = q.plainItems ++ its) -> blk.choices }
      }
      val parts = sampled ++ (if (exact.isEmpty) Seq.empty
        else Seq(q.copy(select = q.plainItems ++ exact, having = None) -> Map.empty[String, TableChoice]))
      scala.Right(parts match {
        case Seq((p, choices)) => rewriteBlock(p, choices, seed)
        case _                 => joinParts(q, parts, seed)
      })
    } catch { case Unsupported(r) => scala.Left(r) }

  private def joinParts(q: FlatQuery, parts: Seq[(FlatQuery, Map[String, TableChoice])],
                        seed: Long): Rewritten = {
    if (!q.groupBy.forall(g => q.plainItems.exists(_.expr == g)))
      bail("a query answered in several parts must select every group key")
    val rendered = parts.zipWithIndex.map { case ((p, choices), i) =>
      val unordered = p.copy(orderBy = Seq.empty, limit = None)
      if (choices.values.forall(_.sample.isEmpty)) (unordered.sqlExact, p, None)
      else { val rw = rewriteBlock(unordered, choices, seed + i); (rw.sql, p, Some(rw)) }
    }
    val rws = rendered.flatMap(_._3)
    if (rws.isEmpty) bail("no sampled block in the plan; run exact instead")
    val keys = q.plainItems.map(_.alias)
    val cols = keys.map(k => s"v0.$k") ++ rendered.zipWithIndex.flatMap { case ((_, p, rw), i) =>
      p.aggItems.flatMap(it => it.alias +: rw.map(_.errColumns(it.alias)).toSeq).map(c => s"v$i.$c")
    }
    val from = rendered.zipWithIndex.map { case ((sql, _, _), i) =>
      if (i == 0) s"($sql) v0"
      else if (keys.isEmpty) s" CROSS JOIN ($sql) v$i"
      else s" JOIN ($sql) v$i ON ${keys.map(k => s"v0.$k <=> v$i.$k").mkString(" AND ")}"
    }.mkString
    Rewritten(s"SELECT ${cols.mkString(", ")} FROM $from${q.orderLimitSql}",
      rws.flatMap(_.errColumns).toMap, rws.map(_.b).max)
  }

  // ------------------------------------------------------------ cell table --

  /** The L1/L2 cell table of a flat block. `col` names the cell-table
    * column holding a statistic of an aggregate call.
    */
  private final case class Cells(sql: String, b: Int, distinctTau: Option[Double],
                                 col: (AggCall, Stat) => String)

  /** Renders the cell table of `q`. With `groupRows`, the L2 level also
    * emits one row per group pooling all of its cells, with a NULL `vsid`.
    */
  private def cells(q: FlatQuery, choices: Map[String, TableChoice], seed: Long,
                    groupRows: Boolean): Cells = {
    if (!q.from.forall(_.isInstanceOf[BaseTable])) bail("derived table inside a sampled block")
    val sampled = q.from.filter(s => choices(s.alias).sample.isDefined)
    if (sampled.isEmpty) bail("no sampled source in choice; run exact instead")

    // Shared number of subsamples across all sampled sources (perfect square
    // so Theorem 4's h(i,j) grid partitions exactly).
    val b = numSubsamples(sampled.map(s => choices(s.alias).rows).min)

    // --- independent sampling units ------------------------------------------
    // Hashed (universe) samples joined on their hash columns share inclusion
    // events: such a correlation class is one sampling unit, whose joint
    // probability is least(tau), not the product (Section 5.1 / Appendix E.1),
    // and whose sid is any one member's (all hash the same key). Classes are
    // the connected components of hashed sources under join conditions that
    // touch their hash columns. Every other sampled source is a unit of its
    // own. Units are drawn independently: probabilities multiply and sids
    // combine by h(i, j).
    val hashedOf: Map[String, SampleInfo] = sampled.flatMap { s =>
      choices(s.alias).sample
        .filter(_.sampleType == SampleType.Hashed).map(s.alias -> _)
    }.toMap
    val classes: Seq[Seq[String]] = {
      val parent = scala.collection.mutable.Map(hashedOf.keys.map(a => a -> a).toSeq: _*)
      def find(a: String): String =
        if (parent(a) == a) a else { val r = find(parent(a)); parent(a) = r; r }
      for (c <- q.joinConds) {
        (hashedOf.get(c.leftAlias), hashedOf.get(c.rightAlias)) match {
          case (Some(li), Some(ri))
            if li.columns.exists(_.equalsIgnoreCase(c.leftCol)) &&
               ri.columns.exists(_.equalsIgnoreCase(c.rightCol)) =>
            parent(find(c.leftAlias)) = find(c.rightAlias)
          case _ =>
        }
      }
      hashedOf.keys.toSeq.groupBy(find).values.toSeq
    }
    val units = classes ++ sampled.map(_.alias).filterNot(hashedOf.contains).map(Seq(_))
    def prob(a: String) = s"$a.${SampleCatalog.ProbCol}"
    val probSql = units.map(u =>
      if (u.size == 1) prob(u.head) else s"least(${u.map(prob).mkString(", ")})").mkString(" * ")
    val sidSql = units.map(u => s"${u.head}.vsid").reduceLeft(hExpr(_, _, b))

    // a distinct count scales by the drawn fraction of the distinct column's
    // domain, and its sid must partition that domain: so the block's one
    // unit is a hashed class with a member hashed on exactly that column
    // (compared by its last name part, as the planner's `classOf` does); the
    // class keeps a key with probability least(tau)
    val distinctArgs = q.allAggs.filter(_.func == AggFuncType.CountDistinct).map(_.argSql).distinct
    if (distinctArgs.size > 1) bail("multiple count-distinct columns in one block")
    val distinctTau = distinctArgs.flatten.headOption.map { arg =>
      val key = Seq(arg.split('.').last.toLowerCase)
      units match {
        case Seq(u) if u.exists(hashedOf.get(_).exists(_.columns.map(_.toLowerCase) == key)) =>
          u.map(hashedOf(_).tau).min
        case _ => bail("count-distinct needs its one sampling unit hashed on the distinct column")
      }
    }

    // --- L1: per-source subqueries with a vsid column -----------------------
    def l1(s: Source): String = choices(s.alias) match {
      case UseBase(name, _) => s"$name AS ${s.alias}"
      case UseSample(info)  =>
        s"(SELECT *, ${unitSidExpr(info, b, seed + s.alias.hashCode)} AS vsid " +
          s"FROM ${info.sampleTable}) AS ${s.alias}"
    }

    // --- L2: per-(group, sid) statistics -------------------------------------
    val calls = q.allAggs.distinct
    def col(c: AggCall, st: Stat) = s"a${calls.indexOf(c)}_${st.suffix}"
    val statCols = calls.flatMap(c => CellStats.statsOf(c)
      .map(st => s"${CellStats.statSql(c, st, probSql)} AS ${col(c, st)}"))
    val groups = q.groupBy.map(_.sqlText)
    val groupSelect = groups.zipWithIndex.map { case (g, i) => s"$g AS g_$i" }
    val cellKey = (groups :+ sidSql).mkString(", ")
    val groupBy =
      if (groupRows) s"GROUPING SETS (($cellKey), (${groups.mkString(", ")}))" else cellKey
    val sql =
      s"SELECT ${(groupSelect :+ s"$sidSql AS vsid" :+ "count(*) AS vsub_size"
        ).++(statCols).mkString(", ")}" +
      s"${q.fromWhereSql(l1)} GROUP BY $groupBy"
    Cells(sql, b, distinctTau, col)
  }

  /** The select column of a plain (group) item: the alias `g_i` of the
    * grouping expression it repeats. */
  private def groupCol(q: FlatQuery, item: SelectItem): String = {
    val gi = q.groupBy.indexWhere(_.sqlText == item.expr.asInstanceOf[Raw].sqlText)
    if (gi < 0) bail(s"non-grouped plain select item: ${item.alias}")
    s"g_$gi AS ${item.alias}"
  }

  /** The last level: one row per output group (`g_i` columns of `from`)
    * with each aggregate item's point estimate and its error over the
    * per-sid estimates, on the rows where `vsid` is not NULL.
    */
  private def outputLevel(q: FlatQuery, from: String, point: SelectItem => String,
                          perSid: SelectItem => String, having: Option[String],
                          b: Int): Rewritten = {
    val cols = q.select.flatMap { item =>
      if (item.expr.aggs.isEmpty) Seq(groupCol(q, item))
      else Seq(s"${point(item)} AS ${item.alias}",
        s"${errSql(perSid(item), "vsid")} AS ${item.alias}$ErrSuffix")
    }
    val groupBySql =
      if (q.groupBy.isEmpty) "" else s" GROUP BY ${q.groupBy.indices.map(i => s"g_$i").mkString(", ")}"
    val havingSql = having.map(h => s" HAVING $h").getOrElse("")
    Rewritten(s"SELECT ${cols.mkString(", ")} FROM $from$groupBySql$havingSql${q.orderLimitSql}",
      q.aggItems.map(i => i.alias -> s"${i.alias}$ErrSuffix").toMap, b)
  }

  /** The point estimate `sql` of `call`, 0 for a count over no rows: a
    * global query whose WHERE drops every row still returns one row, holding
    * each aggregate's value over no rows, and SQL's count there is 0, not
    * NULL. Per-sid estimates and errors stay NULL.
    */
  private def countPoint(call: AggCall, sql: String): String = call.func match {
    case AggFuncType.Count | AggFuncType.CountDistinct => s"coalesce($sql, 0)"
    case _                                             => sql
  }

  // ------------------------------------------------------------------ flat --

  private def rewriteFlat(q: FlatQuery, choices: Map[String, TableChoice],
                          seed: Long): Rewritten = {
    if (q.hasExtreme) bail("extreme statistics must be decomposed before rewriting")
    val c = cells(q, choices, seed, groupRows = false)
    // a percentile has no additive statistic: its point is the size-weighted
    // mean of the cells' percentiles
    def pooled(call: AggCall)(st: Stat): String = st match {
      case Stat.Pct => s"(sum(${c.col(call, st)} * vsub_size) / sum(vsub_size))"
      case _        => s"sum(${c.col(call, st)})"
    }
    def point(e: Expr) =
      e.render(call => countPoint(call, CellStats.estimate(call, pooled(call), "1", c.distinctTau)))
    // (The paper's Query 9 carries an `n_g` window to scale per-subsample
    // estimates by the realized group size. Counts and sums scale by b, the
    // expected subsample-to-sample factor, instead: the realized ratio would
    // cancel the subsample-size randomness that is part of a Bernoulli
    // sample's count variance, collapsing the count estimator's spread to
    // zero. So no window is needed, which also removes one sort/shuffle.)
    def perSid(e: Expr) =
      e.render(call => CellStats.estimate(call, c.col(call, _), c.b.toString, c.distinctTau))
    outputLevel(q, s"(${c.sql}) vt3", i => point(i.expr), i => perSid(i.expr),
      q.having.map(point), c.b)
  }

  // ---------------------------------------------------------------- nested --

  /** Aggregate-in-FROM queries (Section 5.2) in one pass over the sample.
    * The inner query's cell table (Query 7's `GROUP BY ..., sid`) also
    * carries one pooled row per inner group (NULL `vsid`), so L3 gives the
    * inner select items as the inner point (scale 1) on that row and as a
    * per-sid estimate (scale b) on every sid row. L4 runs the outer
    * aggregates per (outer groups, vsid); the last level takes the point
    * from the NULL-`vsid` row and the error from the sid rows.
    */
  private def rewriteNested(outer: FlatQuery, inner: FlatQuery, alias: String,
                            choices: Map[String, TableChoice], seed: Long): Rewritten = {
    if (outer.hasExtreme || inner.hasExtreme) bail("extreme statistics in nested query")
    if (inner.groupBy.isEmpty) bail("nested rewrite requires a grouped inner query")
    if (inner.allAggs.exists(_.func.isInstanceOf[AggFuncType.Percentile]))
      bail("percentile in a nested query (its point is no function of pooled statistics)")
    if (outer.having.isDefined) bail("HAVING on the outer query of a nested query")
    if (inner.limit.isDefined) bail("LIMIT in the inner query of a nested query")

    val c = cells(inner, choices, seed, groupRows = true)
    val scale = s"CASE WHEN vsid IS NULL THEN 1 ELSE ${c.b} END"
    def est(e: Expr) =
      e.render(call => CellStats.estimate(call, c.col(call, _), scale, c.distinctTau))
    val innerCols = inner.select.map { item =>
      if (item.expr.aggs.isEmpty) groupCol(inner, item) else s"${est(item.expr)} AS ${item.alias}"
    }
    val innerHaving = inner.having.map(h => s" WHERE ${est(h)}").getOrElse("")
    val l3 = s"SELECT ${(innerCols :+ "vsid").mkString(", ")} FROM (${c.sql}) vt3$innerHaving"

    val outerGroups = outer.groupBy.map(_.sqlText)
    val calls = outer.allAggs.distinct
    def o(call: AggCall) = s"o_${calls.indexOf(call)}"
    val l4Cols = outerGroups.zipWithIndex.map { case (g, i) => s"$g AS g_$i" } ++
      ("vsid" +: calls.map(call => s"${call.sqlExact} AS ${o(call)}"))
    val l4 = s"SELECT ${l4Cols.mkString(", ")}${outer.fromWhereSql(_ => s"($l3) $alias")} " +
      s"GROUP BY ${(outerGroups :+ "vsid").mkString(", ")}"
    def point(call: AggCall) = countPoint(call, s"max(CASE WHEN vsid IS NULL THEN ${o(call)} END)")
    // an outer filter on inner estimates may drop an outer group's point row
    // but keep some of its sid rows; such a group has no point estimate
    val hasPoint = if (outerGroups.isEmpty) None else Some("count(vsid) < count(*)")
    outputLevel(outer, s"($l4) vo", i => i.expr.render(point),
      i => i.expr.render(call => s"CASE WHEN vsid IS NOT NULL THEN ${o(call)} END"),
      hasPoint, c.b)
  }
}
