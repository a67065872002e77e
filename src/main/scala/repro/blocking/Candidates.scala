package repro.blocking

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Conventions, the one candidate join, and quality metrics for
  * candidate-pair generation.
  *
  * A candidate set is a DataFrame with columns `(id_a, id_b)` — `rec_id`s
  * from the two parties — already deduplicated. Every blocking scheme is a
  * key function: it turns each record into `(id, <key columns>)` rows, and
  * [[fromKeys]] pairs the records of the two parties that share a row.
  * Blocking quality is reported with the standard triple:
  *  - pairs completeness  PC = |cand ∩ truth| / |truth|   (recall of blocking)
  *  - pairs quality       PQ = |cand ∩ truth| / |cand|    (precision of blocking)
  *  - reduction ratio     RR = 1 − |cand| / (nA · nB)
  */
object Candidates {

  /** Normalize a pair DataFrame: expected columns, distinct rows. */
  def canonical(pairs: DataFrame): DataFrame =
    pairs.select(col("id_a").cast("long"), col("id_b").cast("long")).distinct()

  /** Candidate pairs from per-record keys `(id, <key columns>)` of each
    * party: an equi-join on every key column, then [[canonical]].
    */
  def fromKeys(ka: DataFrame, kb: DataFrame): DataFrame =
    canonical(
      ka.withColumnRenamed("id", "id_a")
        .join(kb.withColumnRenamed("id", "id_b"), ka.columns.filterNot(_ == "id").toSeq)
        .select("id_a", "id_b"))

  /** Banded keys `(id, t, key)`: one row per element of `buckets`, an
    * `array<struct<t int, key bigint>>` column (one bucket per LSH table).
    */
  def bandKeys(df: DataFrame, idCol: String, buckets: Column): DataFrame =
    df.select(col(idCol).cast("long") as "id", explode(buckets) as "tk")
      .select(col("id"), col("tk._1") as "t", col("tk._2") as "key")

  /** |cand ∩ truth| — both inputs in canonical pair form. */
  def truePositives(cand: DataFrame, truth: DataFrame): Long =
    canonical(cand).join(canonical(truth), Seq("id_a", "id_b")).count()

  def pairsCompleteness(cand: DataFrame, truth: DataFrame): Double = {
    val t = truth.count()
    if (t == 0) 1.0 else truePositives(cand, truth).toDouble / t
  }

  def pairsQuality(cand: DataFrame, truth: DataFrame): Double = {
    val c = canonical(cand).count()
    if (c == 0) 0.0 else truePositives(cand, truth).toDouble / c
  }

  def reductionRatio(candCount: Long, nA: Long, nB: Long): Double = {
    require(nA > 0 && nB > 0, "empty database")
    1.0 - candCount.toDouble / (nA.toDouble * nB.toDouble)
  }
}
