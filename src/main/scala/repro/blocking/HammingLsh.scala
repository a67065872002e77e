package repro.blocking

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.BloomFilter

/** Hamming-LSH blocking over Bloom filters (Durham; Karapiperis &
  * Verykios): Λ independent hash tables, each keyed by β bit positions
  * sampled uniformly from [0, l). Two filters land in the same bucket of a
  * table iff they agree on all β sampled bits, so a pair at bit-agreement
  * fraction s collides in ≥1 of Λ tables with probability 1 − (1 − s^β)^Λ —
  * a tunable recall guarantee that survives typos, unlike phonetic keys.
  */
object HammingLsh {

  /** Deterministic sample of Λ × β positions from [0, l). */
  def samplePositions(l: Int, tables: Int, bitsPerTable: Int, seed: Long)
      : Array[Array[Int]] = {
    require(bitsPerTable <= 63, s"bucket key packs bits into a Long; β=$bitsPerTable > 63")
    require(bitsPerTable <= l, s"β=$bitsPerTable exceeds filter length $l")
    val rnd = new scala.util.Random(seed)
    Array.fill(tables)(rnd.shuffle((0 until l).toVector).take(bitsPerTable).toArray)
  }

  /** Per-position set-bit frequency over a sample of filters. */
  def occupancy(sample: Seq[Array[Byte]], l: Int): Array[Double] = {
    require(sample.nonEmpty, "occupancy needs a non-empty sample")
    val counts = new Array[Int](l)
    for (bf <- sample; i <- 0 until l if BloomFilter.getBit(bf, i)) counts(i) += 1
    counts.map(_.toDouble / sample.size)
  }

  /** Entropy-aware variant (Durham-style bit selection): sample positions
    * only among bits whose population occupancy lies in `band`. Uniform
    * sampling over a sparse filter picks many near-constant bits — a table
    * whose β sampled bits are almost always 0 hashes most of the database
    * into one bucket, and candidate volume goes quadratic. Restricting to
    * mid-occupancy bits keeps every table discriminative.
    */
  def samplePositionsEntropyAware(sample: Seq[Array[Byte]], l: Int, tables: Int,
                                  bitsPerTable: Int, seed: Long,
                                  band: (Double, Double) = (0.2, 0.8))
      : Array[Array[Int]] = {
    require(bitsPerTable <= 63, s"bucket key packs bits into a Long; β=$bitsPerTable > 63")
    val occ = occupancy(sample, l)
    var (lo, hi) = band
    var eligible = (0 until l).filter(i => occ(i) >= lo && occ(i) <= hi).toVector
    // widen the band until enough discriminative bits exist
    while (eligible.size < bitsPerTable && (lo > 0.0 || hi < 1.0)) {
      lo = math.max(0.0, lo - 0.05); hi = math.min(1.0, hi + 0.05)
      eligible = (0 until l).filter(i => occ(i) >= lo && occ(i) <= hi).toVector
    }
    require(eligible.size >= bitsPerTable,
      s"only ${eligible.size} usable bit positions for β=$bitsPerTable")
    val rnd = new scala.util.Random(seed)
    Array.fill(tables)(rnd.shuffle(eligible).take(bitsPerTable).toArray)
  }

  /** Candidate pairs: records sharing a bucket in any of the Λ tables whose
    * positions come from [[samplePositions]] or
    * [[samplePositionsEntropyAware]].
    */
  def candidatesWithPositions(a: DataFrame, b: DataFrame, bfCol: String,
                              positions: Array[Array[Int]],
                              idCol: String = "rec_id"): DataFrame =
    Candidates.fromKeys(keys(a, bfCol, positions, idCol), keys(b, bfCol, positions, idCol))

  /** Column of `array<struct<t int, key bigint>>`: per table, the sampled
    * bits packed into a Long bucket key.
    */
  private def bucketCol(bf: Column, positions: Array[Array[Int]]): Column = {
    val f = udf((bytes: Array[Byte]) =>
      positions.zipWithIndex.map { case (ps, t) =>
        var key = 0L
        var i = 0
        while (i < ps.length) {
          if (BloomFilter.getBit(bytes, ps(i))) key |= (1L << i)
          i += 1
        }
        (t, key)
      }.toSeq)
    f(bf)
  }

  /** Per-record `(id, t, key)` bucket assignments, one row per table. */
  def keys(df: DataFrame, bfCol: String, positions: Array[Array[Int]],
           idCol: String = "rec_id"): DataFrame =
    Candidates.bandKeys(df, idCol, bucketCol(col(bfCol), positions))

  /** Analytic collision probability 1 − (1 − s^β)^Λ for bit-agreement s —
    * the theoretical recall guarantee the tests validate empirically.
    */
  def collisionProbability(agreement: Double, tables: Int, bitsPerTable: Int): Double =
    1.0 - math.pow(1.0 - math.pow(agreement, bitsPerTable.toDouble), tables.toDouble)
}
