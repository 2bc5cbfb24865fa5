package org.apache.spark.sql

/** Reaches `cloneSession` and a session's inheritable thread-locals, which
  * are `private[sql]` (why it clones twice and releases: DESIGN.md §4). */
object SessionClone {
  /** A clone of `spark` whose tasks share the executors' class loader, and
    * so the cache of generated classes, with every other clone made here. */
  def apply(spark: SparkSession): SparkSession = {
    val unisolated = spark.asInstanceOf[classic.SparkSession].cloneSession()
    unisolated.conf.set(internal.SQLConf.ARTIFACTS_SESSION_ISOLATION_ENABLED.key, "false")
    try unisolated.cloneSession() finally release(unisolated)
  }

  /** Drops `session`'s thread-locals from the calling thread, so that the
    * threads it starts later do not copy them. */
  def release(session: SparkSession): Unit = {
    val s = session.asInstanceOf[classic.SparkSession]
    s.managedJobTags.remove(); s.threadUuid.remove()
  }
}
