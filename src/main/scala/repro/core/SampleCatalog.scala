package repro.core

import scala.collection.mutable

/** Kinds of sample tables VerdictDB prepares offline (Section 3.1). */
sealed trait SampleType
object SampleType {
  /** Bernoulli sample: every tuple kept independently with probability tau. */
  case object Uniform extends SampleType
  /** Hashed (universe) sample on a column set: kept iff h(t.C) < tau. */
  case object Hashed extends SampleType
  /** Stratified sample on a column set with per-stratum minimum counts. */
  case object Stratified extends SampleType
}

/** Metadata for one prepared sample table, mirroring the catalog schema the
  * paper records "in a specific schema inside the database catalog".
  *
  * @param baseTable   name of the original (view-registered) table
  * @param sampleTable name of the sample's registered view
  * @param sampleType  uniform / hashed / stratified
  * @param columns     the column set C (empty for uniform)
  * @param tau         sampling parameter in [0,1]
  * @param baseRows    |T| at creation time
  * @param sampleRows  |T_s| at creation time
  */
final case class SampleInfo(
    baseTable: String,
    sampleTable: String,
    sampleType: SampleType,
    columns: Seq[String],
    tau: Double,
    baseRows: Long,
    sampleRows: Long) {

  /** Overall fraction of the base table present in the sample. */
  def ratio: Double = if (baseRows == 0) 1.0 else sampleRows.toDouble / baseRows
}

/** In-middleware registry of prepared samples, keyed by base table.
  *
  * The actual sample *data* lives in the underlying database (as temp views
  * over DataFrames, or Parquet tables in the benches); only this metadata is
  * middleware-resident, as in the paper.
  */
final class SampleCatalog {
  private val byBase = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[SampleInfo]]

  def register(info: SampleInfo): Unit =
    byBase.getOrElseUpdate(info.baseTable.toLowerCase, mutable.ArrayBuffer.empty) += info

  /** All samples prepared for `baseTable` (empty if none). */
  def samplesFor(baseTable: String): Seq[SampleInfo] =
    byBase.getOrElse(baseTable.toLowerCase, mutable.ArrayBuffer.empty).toSeq

  def allSamples: Seq[SampleInfo] = byBase.values.flatten.toSeq
}

object SampleCatalog {
  /** Column added to every sample table holding the per-tuple inclusion
    * probability (the paper stores sampling probabilities "as an extra
    * column in the sample table").
    */
  val ProbCol = "verdict_sampling_prob"
}
