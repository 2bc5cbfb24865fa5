package repro.core

import repro.core.Ast._

/** The estimator core (Sections 4.2 and 5): each aggregate's sufficient
  * statistics and the one formula that turns them into an estimate.
  *
  * A cell is the set of sample rows sharing one (group, sid) pair. Its
  * statistics are Horvitz–Thompson sums weighted by 1 / inclusion
  * probability, so an additive statistic of a whole group is the sum of its
  * cells'. Each aggregate's formula is written once, over a statistic
  * accessor and a scale for size-proportional (count and sum) estimates:
  *
  *  - point estimate over a group's cells: the pooled statistics, scale 1;
  *  - per-subsample estimate of one cell: its bare statistics, scale b, the
  *    expected sample-to-subsample size ratio;
  *  - one-level HT aggregate (the integrated-AQP baseline): each statistic's
  *    own SQL aggregate, scale 1.
  */
object CellStats {

  /** One sufficient statistic of an aggregate call; `suffix` names its
    * column in a cell table. */
  sealed abstract class Stat(val suffix: String)
  object Stat {
    /** HT count: sum of 1 / p. */
    case object W   extends Stat("w")
    /** HT sum of the argument. */
    case object XW  extends Stat("xw")
    /** HT sum of the argument squared. */
    case object X2W extends Stat("x2w")
    /** Percentile of the argument. */
    case object Pct extends Stat("pct")
    /** Distinct count of the argument. */
    case object Cd  extends Stat("cd")
  }
  import AggFuncType._
  import Stat._

  /** The statistics `estimate` reads for `call`, in column order. */
  def statsOf(call: AggCall): Seq[Stat] = call.func match {
    case Count                => Seq(W)
    case Sum                  => Seq(XW)
    case Avg                  => Seq(XW, W)
    case VarSamp | StddevSamp => Seq(XW, W, X2W)
    case Percentile(_)        => Seq(Pct)
    case CountDistinct        => Seq(Cd)
    case Min | Max            => Seq.empty
  }

  /** SQL aggregate computing `stat` of `call` over a set of rows whose
    * inclusion probability is the SQL expression `prob`. This is the only
    * place that renders HT weighting.
    */
  def statSql(call: AggCall, stat: Stat, prob: String): String = {
    def ht(v: String) = s"sum($v / ($prob))"
    def arg = call.argSql.get
    stat match {
      case W => ht(call match {
        case AggCall(Count, Some(a)) if a != "1" => s"CASE WHEN ($a) IS NOT NULL THEN 1.0 END"
        case _                                   => "1.0"
      })
      case XW  => ht(s"($arg)")
      case X2W => ht(s"($arg) * ($arg)")
      case Pct =>
        val Percentile(q) = call.func: @unchecked
        s"percentile(($arg), $q)"
      case Cd  => s"count(DISTINCT ($arg))"
    }
  }

  /** SQL estimate of `call` from its statistics as read by `stat`. Counts
    * and sums are multiplied by the SQL expression `scale` (omitted when
    * "1"); ratios (avg, moments) are scale-free. A distinct count is divided
    * by `distinctTau`, the hashed sample's domain fraction, if one is given.
    */
  def estimate(call: AggCall, stat: Stat => String, scale: String,
               distinctTau: Option[Double]): String = {
    def scaled(x: String) = if (scale == "1") x else s"($x * $scale)"
    def moment2 = s"${stat(X2W)} / ${stat(W)} - power(${stat(XW)} / ${stat(W)}, 2)"
    call.func match {
      case Count         => scaled(stat(W))
      case Sum           => scaled(stat(XW))
      case Avg           => s"(${stat(XW)} / ${stat(W)})"
      case VarSamp       => s"($moment2)"
      case StddevSamp    => s"sqrt($moment2)"
      case Percentile(_) => stat(Pct)
      case CountDistinct =>
        distinctTau.fold(scaled(stat(Cd)))(t => s"(${scaled(stat(Cd))} / CAST($t AS DOUBLE))")
      case Min | Max     =>
        throw new IllegalArgumentException("extreme statistics have no sample estimate")
    }
  }
}
