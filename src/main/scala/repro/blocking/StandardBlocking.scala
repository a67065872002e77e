package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Standard blocking: an equi-join of the two parties on a hashed blocking
  * key (e.g. HMAC of Soundex codes, [[repro.core.Encodings.withSoundexKey]]).
  * The "past"-era complexity-reduction baseline: cheap, but a single typo
  * that changes the phonetic code loses the pair (low PC under corruption),
  * and frequent keys form large blocks (skew).
  */
object StandardBlocking {

  /** Per-record block keys `(id, key)` for a party DataFrame. */
  def keys(df: DataFrame, keyCol: String, idCol: String = "rec_id"): DataFrame =
    df.select(col(idCol).cast("long") as "id", col(keyCol) as "key")
      .where(col("key").isNotNull)

  /** Candidate pairs: records of the two parties sharing a block key. */
  def candidates(a: DataFrame, b: DataFrame, keyCol: String,
                 idCol: String = "rec_id"): DataFrame =
    Candidates.fromKeys(keys(a, keyCol, idCol), keys(b, keyCol, idCol))

  /** Block-size profile `(key, n_a, n_b, comparisons)` — input to purging. */
  def blockSizes(a: DataFrame, b: DataFrame, keyCol: String,
                 idCol: String = "rec_id"): DataFrame = {
    val ka = keys(a, keyCol, idCol).groupBy("key").agg(count("*") as "n_a")
    val kb = keys(b, keyCol, idCol).groupBy("key").agg(count("*") as "n_b")
    ka.join(kb, "key").withColumn("comparisons", col("n_a") * col("n_b"))
  }
}
