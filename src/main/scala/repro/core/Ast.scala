package repro.core

/** Minimal relational AST for the class of queries VerdictDB supports
  * (Table 1 of the paper): aggregates over equi-joins of base/derived tables
  * with filters, group-by, having, order-by and limit.
  *
  * Scalar (non-aggregate) subtrees are carried as raw SQL text (`Raw`) —
  * the middleware does not need to understand them, only to re-emit them in
  * the rewritten query. Aggregate calls are first-class (`AggCall`) because
  * the rewriter must replace each with its Horvitz–Thompson form and its
  * per-subsample estimate. Select items may combine several aggregates
  * arithmetically (e.g. TPC-H q14's `100 * sum(a) / sum(b)`).
  */
object Ast {

  /** Aggregate function kinds VerdictDB knows how to approximate (plus the
    * extreme statistics it refuses to approximate, used by the decomposer).
    */
  sealed trait AggFuncType { def isExtreme: Boolean = false }
  object AggFuncType {
    case object Count          extends AggFuncType
    case object Sum            extends AggFuncType
    case object Avg            extends AggFuncType
    case object CountDistinct  extends AggFuncType
    case object StddevSamp     extends AggFuncType
    case object VarSamp        extends AggFuncType
    final case class Percentile(q: Double) extends AggFuncType
    case object Min extends AggFuncType { override def isExtreme = true }
    case object Max extends AggFuncType { override def isExtreme = true }
  }

  /** Expression tree for select items / having clauses. */
  sealed trait Expr {
    /** All aggregate calls in this subtree, left to right. */
    def aggs: Seq[AggCall] = this match {
      case a: AggCall        => Seq(a)
      case Arith(_, l, r)    => l.aggs ++ r.aggs
      case FuncWrap(_, args) => args.flatMap(_.aggs)
      case _: Raw            => Seq.empty
    }
    /** Render assuming each AggCall is replaced by `sub(call)`. */
    def render(sub: AggCall => String): String = this match {
      case a: AggCall        => sub(a)
      case Raw(s)            => s
      case Arith(op, l, r)   => s"(${l.render(sub)} $op ${r.render(sub)})"
      case FuncWrap(n, args) => s"$n(${args.map(_.render(sub)).mkString(", ")})"
    }
    /** Render with aggregates in their original SQL form (exact query). */
    def sqlExact: String = render(_.sqlExact)
  }

  /** Scalar SQL fragment with no aggregate calls inside. */
  final case class Raw(sqlText: String) extends Expr

  /** One aggregate function call.
    * @param argSql rendered SQL of the argument; None encodes `count(*)`.
    */
  final case class AggCall(func: AggFuncType, argSql: Option[String]) extends Expr {
    import AggFuncType._
    override def sqlExact: String = func match {
      case Count          => s"count(${argSql.getOrElse("*")})"
      case Sum            => s"sum(${argSql.get})"
      case Avg            => s"avg(${argSql.get})"
      case CountDistinct  => s"count(distinct ${argSql.get})"
      case StddevSamp     => s"stddev_samp(${argSql.get})"
      case VarSamp        => s"var_samp(${argSql.get})"
      case Percentile(q)  => s"percentile(${argSql.get}, $q)"
      case Min            => s"min(${argSql.get})"
      case Max            => s"max(${argSql.get})"
    }
  }

  /** Binary arithmetic/comparison over expressions (op is the SQL operator). */
  final case class Arith(op: String, l: Expr, r: Expr) extends Expr

  /** Scalar function wrapped around expressions (e.g. round(x, 2)). */
  final case class FuncWrap(name: String, args: Seq[Expr]) extends Expr

  /** One output column of the query. */
  final case class SelectItem(expr: Expr, alias: String)

  /** Equi-join condition `leftAlias.leftCol = rightAlias.rightCol`. */
  final case class JoinCond(leftAlias: String, leftCol: String,
                            rightAlias: String, rightCol: String) {
    def sql: String = s"$leftAlias.$leftCol = $rightAlias.$rightCol"
    def colFor(alias: String): Option[String] =
      if (leftAlias == alias) Some(leftCol)
      else if (rightAlias == alias) Some(rightCol) else None
  }

  /** A relation in the FROM clause. */
  sealed trait Source {
    def alias: String
    /** Render this source as it appears in the original (exact) query. */
    def sqlExact: String = this match {
      case BaseTable(n, a)    => if (n == a) n else s"$n AS $a"
      case DerivedTable(q, a) => s"(${q.sqlExact}) AS $a"
    }
  }
  /** Base table reference; `alias` defaults to the table name. */
  final case class BaseTable(name: String, alias: String) extends Source
  /** Derived table: a flat aggregate query in the FROM clause (Section 5.2). */
  final case class DerivedTable(query: FlatQuery, alias: String) extends Source

  /** Sort key: raw SQL (may reference select aliases) + direction. */
  final case class SortKey(sqlText: String, ascending: Boolean) {
    def sql: String = s"$sqlText ${if (ascending) "ASC" else "DESC"}"
  }

  /** A flat (single-block) aggregate query.
    *
    * @param select    output columns (group columns and/or aggregate exprs)
    * @param from      one or more sources combined by equi-joins
    * @param joinConds equi-join predicates between sources
    * @param where     non-join filter (raw SQL), if any
    * @param groupBy   grouping expressions (raw SQL fragments)
    * @param having    post-aggregation filter, if any
    */
  final case class FlatQuery(
      select: Seq[SelectItem],
      from: Seq[Source],
      joinConds: Seq[JoinCond],
      where: Option[Raw],
      groupBy: Seq[Raw],
      having: Option[Expr],
      orderBy: Seq[SortKey],
      limit: Option[Long]) {

    def aggItems: Seq[SelectItem]   = select.filter(_.expr.aggs.nonEmpty)
    def plainItems: Seq[SelectItem] = select.filter(_.expr.aggs.isEmpty)
    def allAggs: Seq[AggCall]       = select.flatMap(_.expr.aggs) ++
      having.toSeq.flatMap(_.aggs)
    def hasExtreme: Boolean         = allAggs.exists(_.func.isExtreme)

    /** Render the original (exact) SQL for this query. */
    def sqlExact: String = sql(_.sqlExact, _.sqlExact)

    /** Render this query with each source rendered by `source` and each
      * aggregate call by `call`: select items, `fromWhereSql`, GROUP BY,
      * HAVING, ORDER BY and LIMIT. */
    def sql(source: Source => String, call: AggCall => String): String = {
      val sel = select.map(i => s"${i.expr.render(call)} AS ${i.alias}").mkString(", ")
      val g  = if (groupBy.nonEmpty) s" GROUP BY ${groupBy.map(_.sqlText).mkString(", ")}" else ""
      val h  = having.map(e => s" HAVING ${e.render(call)}").getOrElse("")
      s"SELECT $sel${fromWhereSql(source)}$g$h$orderLimitSql"
    }

    /** This query's FROM and WHERE clauses, with a leading space: the
      * sources rendered by `source` and comma-joined, then the join
      * conditions and the filter. The engine plans the joins. */
    def fromWhereSql(source: Source => String): String = {
      val conds = joinConds.map(_.sql) ++ where.map(_.sqlText)
      val w = if (conds.nonEmpty) s" WHERE ${conds.mkString(" AND ")}" else ""
      s" FROM ${from.map(source).mkString(", ")}$w"
    }

    /** This query's ORDER BY and LIMIT clauses, each with a leading space. */
    def orderLimitSql: String =
      (if (orderBy.isEmpty) "" else s" ORDER BY ${orderBy.map(_.sql).mkString(", ")}") +
        limit.map(n => s" LIMIT $n").getOrElse("")
  }
}
