package repro.filtering

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.BloomFilter

/** PPJoin-style similarity-join filtering (Sehili et al., "PPRL with
  * PPJoin"; Xiao et al., "Efficient Similarity Joins for Near Duplicate
  * Detection", WWW 2008) over integer token sets. Tokens may be hashed
  * q-grams or the set-bit positions of a Bloom filter ([[bfPositions]]) —
  * both are just sets of ints to the filter.
  *
  * Implemented filters for a Jaccard threshold t, which needs an overlap
  * |x ∩ y| ≥ α = ⌈t/(1+t)·(|x| + |y|)⌉:
  *  - '''length filter''': |y| ∈ [t·|x|, |x|/t] is necessary for J ≥ t;
  *  - '''prefix filter''': with tokens globally ordered by ascending
  *    document frequency, two sets with J ≥ t must share a token within
  *    each other's first |x| − ⌈t·|x|⌉ + 1 tokens;
  *  - '''position filter''': at the first shared prefix token, found at
  *    0-based positions i in x and j in y, no earlier token of either set
  *    occurs in the other, so |x ∩ y| ≤ 1 + min(|x| − i − 1, |y| − j − 1),
  *    which must reach α.
  * Each pair is judged on the row of its first shared prefix token only,
  * so [[candidates]] emits it at most once without a `distinct`. That row
  * holds both rank arrays, so the exact Jaccard is computed there too.
  */
object PPJoin {

  /** Column of sorted set-bit positions of a Bloom filter. */
  def bfPositions(bf: Column): Column =
    udf((bytes: Array[Byte]) => BloomFilter.setPositions(bytes)).apply(bf)

  /** Re-rank both parties' `(id, tokens: array<int>)` sets to dense ranks
    * 1..D in ascending global `(document frequency, tok)` order, the PPJoin
    * canonical order; a repeated token counts once. Output per party: `(id,
    * toks)`, distinct ranks sorted, for records with at least one token. The
    * frequency dictionary is sorted on the driver and broadcast, so arrays
    * are reranked in place with no window or join-back. That assumes a small
    * dictionary: hashed q-grams, or BF positions (≤ l).
    */
  def rankTokens(a: DataFrame, b: DataFrame): (DataFrame, DataFrame) = {
    val docTokens = a.select("tokens").unionByName(b.select("tokens"))
      .select(explode(array_distinct(col("tokens"))) as "tok")
    val rankOf = a.sparkSession.sparkContext.broadcast(docTokens.groupBy("tok").count().collect()
      .map(r => (r.getLong(1), r.getInt(0))).sorted
      .zipWithIndex.map { case ((_, tok), i) => tok -> (i + 1) }.toMap)
    val rerank = udf((ts: Seq[Int]) => ts.map(rankOf.value).distinct.sorted)
    def ranked(df: DataFrame): DataFrame =
      df.where(size(col("tokens")) > 0).select(col("id"), rerank(col("tokens")) as "toks")
    (ranked(a), ranked(b))
  }

  // Integer bounds of real-valued thresholds, widened by ε so that
  // floating-point error never makes a filter stricter than `verify`:
  // 0.55 · 100 evaluates to 55.00000000000001, and its plain ceiling, 56,
  // would drop a 55-token subset of a 100-token set at exactly J = 0.55.
  private val Eps = 1e-9
  private def ceilBound(v: Column): Column = ceil(v - lit(Eps)).cast("int")
  private def floorBound(v: Column): Column = floor(v + lit(Eps)).cast("int")

  /** Prefix length |x| − ⌈t·|x|⌉ + 1 (≥ 1 for non-empty sets). */
  def prefixLen(size: Column, t: Double): Column =
    greatest(lit(1), size - ceilBound(lit(t) * size) + lit(1))

  /** Candidate pairs `(id_a, id_b, jaccard)`, each at most once, under
    * length, prefix and position filtering at Jaccard ≥ t, from the
    * `(id, toks)` arrays of [[rankTokens]]. `jaccard` is exact; Catalyst
    * drops it unevaluated when a caller selects only the ids.
    */
  def candidates(aRanked: DataFrame, bRanked: DataFrame, t: Double): DataFrame = {
    require(t > 0 && t <= 1, s"Jaccard threshold must be in (0,1], got $t")
    def prefixes(df: DataFrame, side: String): DataFrame =
      df.select(col("id") as s"id_$side", size(col("toks")) as s"len_$side",
                col("toks") as s"toks_$side",
                posexplode(slice(col("toks"), lit(1), prefixLen(size(col("toks")), t)))
                  .as(Seq(s"pos_$side", "tok")))
    val joined = prefixes(aRanked, "a").join(prefixes(bRanked, "b"), "tok")
    val alpha = ceilBound(lit(t / (1 + t)) * (col("len_a") + col("len_b")))
    val position = least(col("len_a") - col("pos_a"), col("len_b") - col("pos_b")) >= alpha
    val firstShared = !arrays_overlap(slice(col("toks_a"), lit(1), col("pos_a")),
                                      slice(col("toks_b"), lit(1), col("pos_b")))
    val inter = size(array_intersect(col("toks_a"), col("toks_b")))
    lengthFilter(joined, "len_a", "len_b", t)
      .where(position && firstShared)
      .select(col("id_a"), col("id_b"),
              inter / (col("len_a") + col("len_b") - inter) as "jaccard")
  }

  /** Verified pairs: the [[candidates]] rows whose exact Jaccard, computed
    * in the prefix join, reaches t. `aRanked` and `bRanked` are unused; they
    * stay so that four-argument callers compile.
    */
  def verify(cands: DataFrame, aRanked: DataFrame, bRanked: DataFrame,
             t: Double): DataFrame = {
    require(cands.columns.contains("jaccard"), "verify needs the jaccard column of " +
      s"PPJoin.candidates; got columns ${cands.columns.mkString("(", ", ", ")")}")
    cands.where(col("jaccard") >= t)
  }

  /** Length filter over pre-joined pairs carrying set sizes. */
  def lengthFilter(pairs: DataFrame, lenA: String, lenB: String, t: Double): DataFrame =
    pairs.where(col(lenB) >= ceilBound(lit(t) * col(lenA)) &&
                col(lenB) <= floorBound(col(lenA) / lit(t)))
}
