package repro.core

/** Variational subsampling (Sections 4.2 and 5.1).
  *
  * A variational table is a sample table with an extra `sid` column: each
  * tuple belongs to at most one subsample. With the paper's defaults
  * (n_s = sqrt(n), hence b = n/n_s = sqrt(n) and b*n_s = n) every tuple is
  * assigned a sid in [1, b] and none is discarded; the rows of one sampling
  * unit share a sid. For joins, Theorem 4 reassigns sid = h(i, j) so that a
  * single join of two independently drawn variational tables is a
  * variational table of the join.
  */
object VariationalSubsampling {

  /** Number of subsamples for a sample of n rows with the paper's default
    * n_s = sqrt(n): b = sqrt(n) rounded as `numSubsamplesFor` does.
    */
  def numSubsamples(n: Long): Int = numSubsamplesFor(n, math.sqrt(n.toDouble))

  /** Subsample-count for an explicit n_s choice: b = n / n_s, rounded *down*
    * to a perfect square so that Theorem 4's sqrt(b)-block grid partitions
    * exactly, and at least 4. The Fig 14 sweep sets n_s != sqrt(n).
    */
  def numSubsamplesFor(n: Long, ns: Double): Int = {
    val raw  = math.max(4.0, n / math.max(1.0, ns))
    val root = math.max(2, math.floor(math.sqrt(raw)).toInt)
    root * root
  }

  /** SQL expression assigning a uniform random sid in [1, b]. With the
    * default b*n_s = n no tuple is discarded (Definition 1's weight for
    * sid 0 is zero). Seeded for reproducibility; a fresh seed must be used
    * per query (footnote 7: never reuse subsample assignments).
    */
  def sidExpr(b: Int, seed: Long): String =
    s"(1 + CAST(floor(rand($seed) * $b) AS INT))"

  /** The sid of a sample's rows: a function of its sampling unit, so that
    * every subsample holds whole units, as the random-group variance method
    * requires (Wolter, Introduction to Variance Estimation, ch. 2). A hashed
    * (universe) sample draws join keys and keeps all rows of a drawn key, so
    * its sid hashes the key columns, which also partitions the key's domain
    * as a count-distinct over the key needs. A uniform or stratified sample
    * draws rows: a `sidExpr` sid per row. The hash sid is not salted per
    * query, so a key lands in the same sid in every query (a deviation from
    * footnote 7).
    */
  def unitSidExpr(info: SampleInfo, b: Int, seed: Long): String = info.sampleType match {
    case SampleType.Hashed => s"(1 + pmod(hash(${info.columns.mkString(", ")}), $b))"
    case _                 => sidExpr(b, seed)
  }

  /** Theorem 4's h(i, j): maps the (i, j) sid pair of a joined tuple to the
    * sid of the joined subsample, using the sqrt(b) x sqrt(b) block grid.
    * i, j in [1, b]; result in [1, b]. b must be a perfect square.
    */
  def h(i: Int, j: Int, b: Int): Int = {
    val r = math.round(math.sqrt(b.toDouble)).toInt
    require(r * r == b, s"b must be a perfect square: $b")
    (((i - 1) / r) * r) + ((j - 1) / r) + 1
  }

  /** SQL rendering of h(i, j) over two sid-valued SQL fragments. */
  def hExpr(iSql: String, jSql: String, b: Int): String = {
    val r = math.round(math.sqrt(b.toDouble)).toInt
    require(r * r == b, s"b must be a perfect square: $b")
    s"(CAST(floor(($iSql - 1) / $r) AS INT) * $r + CAST(floor(($jSql - 1) / $r) AS INT) + 1)"
  }

  /** Error estimate of Equation 2 / Query 9 over a group's per-sid rows:
    * the stddev of the per-subsample estimates `perSid`, times the
    * subsample-size correction sqrt(n_s / n) = 1 / sqrt(#subsamples), where
    * `sidCol` is non-NULL exactly on the rows of one subsample each.
    */
  def errSql(perSid: String, sidCol: String): String =
    s"(stddev_samp($perSid) / sqrt(count($sidCol)))"
}
