package repro.metablocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.blocking.{Candidates, StandardBlocking}

/** Block purging: discard oversized blocks before comparison. Frequent
  * blocking-key values (common surnames, "SMITH"-like phonetic codes)
  * produce blocks whose pairwise cost dominates the whole linkage while
  * contributing mostly non-matches; purging blocks with more than
  * `maxComparisons` cross pairs bounds the skew (Karakasidis et al.'s
  * scalable-blocking observation, meta-blocking step 1).
  */
object BlockPurging {

  /** Keys of blocks whose `n_a · n_b` exceeds the budget. */
  def purgedKeys(a: DataFrame, b: DataFrame, keyCol: String,
                 maxComparisons: Long, idCol: String = "rec_id"): DataFrame =
    StandardBlocking.blockSizes(a, b, keyCol, idCol)
      .where(col("comparisons") > maxComparisons)
      .select("key")

  /** Standard-blocking keys `(id, key)` of `df` outside the `purged` keys. */
  def keys(df: DataFrame, keyCol: String, purged: DataFrame,
           idCol: String = "rec_id"): DataFrame =
    StandardBlocking.keys(df, keyCol, idCol).join(purged, Seq("key"), "left_anti")

  /** Standard-blocking candidates with oversized blocks removed. */
  def candidates(a: DataFrame, b: DataFrame, keyCol: String,
                 maxComparisons: Long, idCol: String = "rec_id"): DataFrame = {
    val bad = purgedKeys(a, b, keyCol, maxComparisons, idCol)
    Candidates.fromKeys(keys(a, keyCol, bad, idCol), keys(b, keyCol, bad, idCol))
  }
}
