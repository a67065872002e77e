package repro.blocking

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.Hashing

/** MinHash-LSH blocking over (hashed) q-gram token sets: a signature of
  * `bands × rows` keyed min-hashes; records agreeing on all `rows` hashes
  * of any band become candidates. Collision probability for Jaccard j is
  * 1 − (1 − j^rows)^bands. Token hashes are keyed by the shared secret, so
  * the exchanged signatures reveal no raw q-grams.
  */
object MinHashLsh {

  /** MinHash signature of a token set (empty set → all Int.MaxValue). */
  def signature(tokens: Seq[String], secret: String, sigLen: Int): Array[Int] =
    Array.tabulate(sigLen) { i =>
      if (tokens == null || tokens.isEmpty) Int.MaxValue
      else tokens.map(t => Hashing.tokenHash(t, secret, 0x4000 + i)).min
    }

  /** Column of `array<struct<t int, key bigint>>`: per band, a 64-bit hash
    * of that band's signature slice.
    */
  private def bucketCol(tokens: Column, secret: String, bands: Int, rows: Int): Column = {
    val f = udf((ts: Seq[String]) => {
      val sig = signature(ts, secret, bands * rows)
      (0 until bands).map { bnd =>
        var key = 1125899906842597L
        var i = bnd * rows
        while (i < (bnd + 1) * rows) { key = key * 31L + sig(i); i += 1 }
        (bnd, key)
      }
    })
    f(tokens)
  }

  /** Per-record `(id, t, key)` band-bucket assignments. */
  def keys(df: DataFrame, tokensCol: String, secret: String, bands: Int,
           rows: Int, idCol: String = "rec_id"): DataFrame =
    Candidates.bandKeys(df, idCol, bucketCol(col(tokensCol), secret, bands, rows))

  /** Candidate pairs: records sharing any band bucket. */
  def candidates(a: DataFrame, b: DataFrame, tokensCol: String,
                 secret: String = "s3cret", bands: Int = 30, rows: Int = 3,
                 idCol: String = "rec_id"): DataFrame =
    Candidates.fromKeys(keys(a, tokensCol, secret, bands, rows, idCol),
                        keys(b, tokensCol, secret, bands, rows, idCol))

  /** Analytic collision probability 1 − (1 − j^rows)^bands for Jaccard j. */
  def collisionProbability(jaccard: Double, bands: Int, rows: Int): Double =
    1.0 - math.pow(1.0 - math.pow(jaccard, rows.toDouble), bands.toDouble)
}
