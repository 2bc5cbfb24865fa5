package perfbench

import org.apache.spark.sql.SparkSession

import repro.core.Ast._
import repro.core.{Rewriter, SamplePlanner, Verdict}
import repro.core.SamplePlanner.SourceInfo

/** Replays the middleware's own path, `parse -> plan -> rewrite`, through
  * the public entry point of each layer, timing each call. The result is
  * checked against the SQL the program itself ran, so the per-layer times
  * measure the program's path and not a look-alike.
  */
object Replay {

  final case class Result(parseMs: Double, planMs: Double, rewriteMs: Double,
                          rawCandidates: Long, blocks: Int, effectiveRatio: Double,
                          b: Double, sql: String)

  private def ms(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** The rand() seed differs per query call; everything else must match. */
  def normalize(sql: String): String = sql.replaceAll("""rand\(-?\d+\)""", "rand(?)")

  /** Planner input for the query's sources, as `Verdict` builds it: for a
    * nested query the planning unit is the inner query's base tables.
    */
  private def sources(spark: SparkSession, verdict: Verdict,
                      q: FlatQuery): Seq[SourceInfo] = {
    val (base, conds) = q.from match {
      case Seq(DerivedTable(inner, _)) =>
        (inner.from.collect { case b: BaseTable => b }, inner.joinConds)
      case srcs => (srcs.collect { case b: BaseTable => b }, q.joinConds)
    }
    base.map { s =>
      val st = verdict.tableStats(s.name)
      SourceInfo(s.alias, s.name, st.map(_.rows).getOrElse(0L),
        verdict.catalog.samplesFor(s.name), conds.flatMap(_.colFor(s.alias)).toSet,
        st.map(_.cardinalities).getOrElse(Map.empty), spark.table(s.name).columns.toSeq)
    }
  }

  /** None when the middleware would not rewrite the query (unsupported, no
    * aggregates, min/max decomposition, or no feasible plan).
    */
  def run(spark: SparkSession, verdict: Verdict, sql: String): Option[Result] = {
    val t0 = System.nanoTime()
    val parsed = verdict.parse(sql)
    val parseMs = ms(t0)
    parsed.toOption.filter(q => q.allAggs.nonEmpty && !q.hasExtreme).flatMap { q =>
      val cfg  = verdict.config.plannerConfig.copy(budgetFraction = verdict.config.budgetFraction)
      val aggs = q.allAggs
      val groupCols = q.groupBy.map(_.sqlText)
      val t1   = System.nanoTime()
      val srcs = sources(spark, verdict, q)
      val plan = SamplePlanner.plan(aggs, srcs, groupCols, cfg)
      val planMs = ms(t1)
      plan.map { p =>
        val raw = SamplePlanner.rawCandidateCount(aggs, srcs, groupCols, cfg)
        val single = p.blocks.size == 1
        val t2 = System.nanoTime()
        val rewritten = p.blocks.zipWithIndex.map { case (blk, bi) =>
          val blockAggs = blk.aggIdxs.map(aggs)
          val items = q.aggItems.filter(_.expr.aggs.forall(blockAggs.contains))
          val sub = q.copy(select = q.plainItems ++ items,
            orderBy = if (single) q.orderBy else Seq.empty,
            limit = if (single) q.limit else None)
          Rewriter.rewrite(sub, blk.choices, verdict.config.seed + bi)
        }
        val rewriteMs = ms(t2)
        val ok = rewritten.collect { case scala.Right(r) => r }
        Result(parseMs, planMs, rewriteMs, raw, p.blocks.size,
          p.blocks.map(_.effRatio).sum / p.blocks.size,
          if (ok.isEmpty) 0.0 else ok.map(_.b.toDouble).sum / ok.size,
          if (ok.size == rewritten.size) ok.map(_.sql).mkString(";\n") else "")
      }
    }
  }
}
