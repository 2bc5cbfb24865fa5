package repro.core

import org.apache.spark.sql.catalyst.analysis._
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.logical._
import org.apache.spark.sql.catalyst.plans.Inner
import org.apache.spark.sql.types._

import repro.core.Ast._

/** Converts a *parsed but unresolved* Catalyst plan into the middleware AST.
  *
  * This is the "Query Parser" box of the paper's Figure 1b: VerdictDB uses
  * the engine's SQL grammar (here, Catalyst's parser — used purely as a
  * parser, never as an optimizer) and lifts the plan into [[Ast.FlatQuery]].
  * Anything outside the supported class (Table 1) returns `Left(reason)`,
  * and the caller passes the original query through unchanged.
  */
object CatalystConverter {

  /** The columns of a table, by name; used to resolve an unqualified column
    * to the source that owns it. */
  type SchemaLookup = String => Option[Seq[String]]

  private val aggNames = Set("count", "sum", "avg", "mean", "min", "max",
    "stddev", "stddev_samp", "variance", "var_samp", "percentile", "median")

  def convert(plan: LogicalPlan, lookup: SchemaLookup): Either[String, FlatQuery] =
    try convertTop(plan, lookup)
    catch { case Unsupported(reason) => scala.Left(reason) }

  private final case class Unsupported(reason: String) extends RuntimeException(reason)
  private def bail(reason: String): Nothing = throw Unsupported(reason)

  // ---------------------------------------------------------------- plans --

  private def convertTop(plan: LogicalPlan, lookup: SchemaLookup): Either[String, FlatQuery] = {
    var cur               = plan
    var limit: Option[Long] = None
    var sort: Seq[SortKey]  = Seq.empty

    cur match {
      case gl: GlobalLimit =>
        val n = gl.limitExpr match {
          case l: Literal => l.value.toString.toLong
          case _          => bail("non-literal limit")
        }
        limit = Some(n)
        cur = gl.child match { case ll: LocalLimit => ll.child; case c => c }
      case _ =>
    }
    cur match {
      case s: Sort =>
        sort = s.order.map(o =>
          SortKey(renderScalar(o.child), o.direction == Ascending))
        cur = s.child
      case _ =>
    }
    var having: Option[Expression] = None
    cur match {
      case h: UnresolvedHaving => having = Some(h.havingCondition); cur = h.child
      case _ =>
    }

    cur match {
      case a: Aggregate =>
        val (sources, joins, where) = convertFrom(a.child, lookup)
        val groupBy = a.groupingExpressions.map(e => Raw(renderScalar(e)))
        val items   = a.aggregateExpressions.map(convertSelectItem)
        scala.Right(FlatQuery(items, sources, joins, where,
          groupBy, having.map(convertExpr), sort, limit))
      case p: Project if p.projectList.exists(containsAgg) =>
        val (sources, joins, where) = convertFrom(p.child, lookup)
        val items = p.projectList.map(convertSelectItem)
        scala.Right(FlatQuery(items, sources, joins, where,
          Seq.empty, having.map(convertExpr), sort, limit))
      case other =>
        scala.Left(s"unsupported top-level plan: ${other.getClass.getSimpleName}")
    }
  }

  /** Walk the FROM subtree: inner equi-joins of base/derived tables plus
    * filters. Returns (sources, equi-join conditions, residual filter).
    */
  private def convertFrom(plan: LogicalPlan, lookup: SchemaLookup)
      : (Seq[Source], Seq[JoinCond], Option[Raw]) = {
    val sources = Seq.newBuilder[Source]
    val joins   = Seq.newBuilder[JoinCond]
    val filters = Seq.newBuilder[String]

    def walk(p: LogicalPlan): Unit = p match {
      case f: Filter =>
        walk(f.child)
        splitConjuncts(f.condition).foreach(classifyPredicate)
      case j: Join =>
        if (j.joinType != Inner) bail(s"non-inner join: ${j.joinType}")
        walk(j.left); walk(j.right)
        j.condition.toSeq.flatMap(splitConjuncts).foreach(classifyPredicate)
      case r: UnresolvedRelation =>
        val name = r.multipartIdentifier.mkString(".")
        sources += BaseTable(name, name)
      case sa: SubqueryAlias =>
        sa.child match {
          case r: UnresolvedRelation =>
            sources += BaseTable(r.multipartIdentifier.mkString("."), sa.alias)
          case sub =>
            convertTop(sub, lookup) match {
              case scala.Right(q) => sources += DerivedTable(q, sa.alias)
              case scala.Left(r)  => bail(s"unsupported derived table: $r")
            }
        }
      case other => bail(s"unsupported FROM node: ${other.getClass.getSimpleName}")
    }

    /** A conjunct is a join condition iff it is an equality between columns
      * of two *different* sources; everything else is a residual filter.
      */
    def classifyPredicate(e: Expression): Unit = e match {
      case eq: EqualTo =>
        (owner(eq.left), owner(eq.right)) match {
          case (Some((ta, ca)), Some((tb, cb))) if ta != tb =>
            joins += JoinCond(ta, ca, tb, cb)
          case _ => filters += renderScalar(eq)
        }
      case other => filters += renderScalar(other)
    }

    /** (sourceAlias, columnName) of an attribute reference, if resolvable. */
    def owner(e: Expression): Option[(String, String)] = e match {
      case a: UnresolvedAttribute =>
        a.nameParts match {
          case Seq(q, c) => Some((q, c))
          case Seq(c) =>
            // a base table's columns come from its name (its alias names no
            // table), a derived table's from its select aliases
            val owners = sources.result().filter {
              case BaseTable(name, _) => lookup(name).exists(_.exists(_.equalsIgnoreCase(c)))
              case DerivedTable(q, _) => q.select.exists(_.alias.equalsIgnoreCase(c))
            }
            owners match { case Seq(one) => Some((one.alias, c)); case _ => None }
          case _ => None
        }
      case _ => None
    }

    walk(plan)
    val where = {
      val fs = filters.result()
      if (fs.isEmpty) None else Some(Raw(fs.map(f => s"($f)").mkString(" AND ")))
    }
    (sources.result(), joins.result(), where)
  }

  private def splitConjuncts(e: Expression): Seq[Expression] = e match {
    case a: And => splitConjuncts(a.left) ++ splitConjuncts(a.right)
    case other  => Seq(other)
  }

  // ---------------------------------------------------------- expressions --

  private def containsAgg(e: Expression): Boolean = e match {
    case f: UnresolvedFunction if aggNames(f.nameParts.last.toLowerCase) => true
    case _ => e.children.exists(containsAgg)
  }

  private def convertSelectItem(e: Expression): SelectItem = e match {
    case a: Alias            => SelectItem(convertExpr(a.child), a.name)
    case ua: UnresolvedAlias => convertSelectItem(ua.child)
    case attr: UnresolvedAttribute =>
      SelectItem(Raw(renderScalar(attr)), attr.nameParts.last)
    case other if containsAgg(other) =>
      SelectItem(convertExpr(other), s"expr_${math.abs(other.toString.hashCode)}")
    case other => SelectItem(Raw(renderScalar(other)), s"col_${math.abs(other.toString.hashCode)}")
  }

  /** Lift an expression possibly containing aggregates into [[Ast.Expr]]. */
  private def convertExpr(e: Expression): Expr = {
    if (!containsAgg(e)) return Raw(renderScalar(e))
    e match {
      case f: UnresolvedFunction if aggNames(f.nameParts.last.toLowerCase) =>
        convertAggCall(f)
      case b: BinaryArithmetic =>
        Arith(arithSymbol(b), convertExpr(b.left), convertExpr(b.right))
      case c: BinaryComparison =>
        Arith(comparisonSymbol(c), convertExpr(c.left), convertExpr(c.right))
      case a: And => Arith("AND", convertExpr(a.left), convertExpr(a.right))
      case o: Or  => Arith("OR", convertExpr(o.left), convertExpr(o.right))
      case f: UnresolvedFunction =>
        FuncWrap(f.nameParts.mkString("."), f.arguments.map(convertExpr))
      case a: Alias => convertExpr(a.child)
      case other => bail(s"unsupported expression over aggregates: ${other.getClass.getSimpleName}")
    }
  }

  private def convertAggCall(f: UnresolvedFunction): AggCall = {
    import AggFuncType._
    val name = f.nameParts.last.toLowerCase
    val args = f.arguments
    def arg0: String = renderScalar(args.head)
    name match {
      case "count" =>
        // the parser rewrites count(*) to count(1); normalize both to None
        args.headOption match {
          case Some(_: UnresolvedStar)        => AggCall(Count, None)
          case Some(l: Literal)               => AggCall(Count, None)
          case Some(a) if f.isDistinct        => AggCall(CountDistinct, Some(renderScalar(a)))
          case Some(a)                        => AggCall(Count, Some(renderScalar(a)))
          case None                           => AggCall(Count, None)
        }
      case "sum"                   => AggCall(Sum, Some(arg0))
      case "avg" | "mean"          => AggCall(Avg, Some(arg0))
      case "min"                   => AggCall(Min, Some(arg0))
      case "max"                   => AggCall(Max, Some(arg0))
      case "stddev" | "stddev_samp" => AggCall(StddevSamp, Some(arg0))
      case "variance" | "var_samp" => AggCall(VarSamp, Some(arg0))
      case "median"                => AggCall(Percentile(0.5), Some(arg0))
      case "percentile" =>
        val q = args(1) match {
          case l: Literal => l.value.toString.toDouble
          case _          => bail("non-literal percentile fraction")
        }
        AggCall(Percentile(q), Some(arg0))
      case other => bail(s"unsupported aggregate: $other")
    }
  }

  /** Render a scalar (aggregate-free) expression back to SQL text. */
  def renderScalar(e: Expression): String = e match {
    case a: UnresolvedAttribute => a.nameParts.mkString(".")
    case l: Literal             => renderLiteral(l)
    case b: BinaryArithmetic =>
      s"(${renderScalar(b.left)} ${arithSymbol(b)} ${renderScalar(b.right)})"
    case c: BinaryComparison =>
      s"(${renderScalar(c.left)} ${comparisonSymbol(c)} ${renderScalar(c.right)})"
    case a: And     => s"(${renderScalar(a.left)} AND ${renderScalar(a.right)})"
    case o: Or      => s"(${renderScalar(o.left)} OR ${renderScalar(o.right)})"
    case n: Not     => s"(NOT ${renderScalar(n.child)})"
    case i: In      =>
      s"(${renderScalar(i.value)} IN (${i.list.map(renderScalar).mkString(", ")}))"
    case l: Like    => s"(${renderScalar(l.left)} LIKE ${renderScalar(l.right)})"
    case n: IsNull    => s"(${renderScalar(n.child)} IS NULL)"
    case n: IsNotNull => s"(${renderScalar(n.child)} IS NOT NULL)"
    case c: Cast      => s"CAST(${renderScalar(c.child)} AS ${c.dataType.sql})"
    case u: UnaryMinus => s"(- ${renderScalar(u.child)})"
    case cw: CaseWhen =>
      val whens = cw.branches
        .map { case (c, v) => s"WHEN ${renderScalar(c)} THEN ${renderScalar(v)}" }
        .mkString(" ")
      val els = cw.elseValue.map(v => s" ELSE ${renderScalar(v)}").getOrElse("")
      s"(CASE $whens$els END)"
    case f: UnresolvedFunction =>
      s"${f.nameParts.mkString(".")}(${f.arguments.map(renderScalar).mkString(", ")})"
    case a: Alias => renderScalar(a.child)
    case other => bail(s"unrenderable scalar expression: ${other.getClass.getSimpleName}")
  }

  private def renderLiteral(l: Literal): String = (l.value, l.dataType) match {
    case (null, _)              => "NULL"
    case (v: org.apache.spark.unsafe.types.UTF8String, _) =>
      s"'${v.toString.replace("'", "''")}'"
    case (v: Int, DateType)     =>
      s"DATE '${java.time.LocalDate.ofEpochDay(v.toLong)}'"
    case (v, _: DecimalType)    => v.toString
    case (v, _)                 => v.toString
  }

  private def arithSymbol(b: BinaryArithmetic): String = b match {
    case _: Add => "+"; case _: Subtract => "-"; case _: Multiply => "*"
    case _: Divide => "/"; case _: Remainder => "%"
    case other => bail(s"unsupported arithmetic: ${other.getClass.getSimpleName}")
  }

  private def comparisonSymbol(c: BinaryComparison): String = c match {
    case _: EqualTo => "="; case _: LessThan => "<"
    case _: LessThanOrEqual => "<="; case _: GreaterThan => ">"
    case _: GreaterThanOrEqual => ">="
    case other => bail(s"unsupported comparison: ${other.getClass.getSimpleName}")
  }
}
