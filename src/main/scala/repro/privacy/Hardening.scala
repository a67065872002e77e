package repro.privacy

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{BloomFilter, Hashing}

/** Bloom-filter hardening transforms. Salting lives in
  * [[repro.core.Encodings.withClk]] (`saltField`); here are the
  * post-encoding transform: BLIP (per-bit randomized response, the
  * differential-privacy mechanism).
  */
object Hardening {

  /** Per-bit ε of BLIP with flip probability f: ε = ln((1−f)/f). */
  def blipEpsilon(f: Double): Double = {
    require(f > 0 && f < 0.5, s"flip probability must be in (0, 0.5), got $f")
    math.log((1.0 - f) / f)
  }

  /** BLIP: flip every bit independently with probability `f`, using a
    * deterministic per-(record, bit) coin so runs are reproducible. Each
    * record's output satisfies ε-local differential privacy per bit; the
    * cost is a controlled loss of Dice accuracy.
    */
  def blip(df: DataFrame, bfCol: String, f: Double,
           idCol: String = "rec_id", seed: Long = 99L,
           out: String = ""): DataFrame = {
    require(f >= 0 && f < 0.5, s"flip probability must be in [0, 0.5), got $f")
    val target = if (out.isEmpty) bfCol else out
    val fn = udf((bf: Array[Byte], id: Long) => {
      val res = bf.clone()
      val n = BloomFilter.numBits(res)
      var i = 0
      while (i < n) {
        if (Hashing.hash01(Hashing.mix(id, seed), i.toLong * 0x9e3779b9L + i) < f) {
          res(i >>> 3) = (res(i >>> 3) ^ (1 << (i & 7))).toByte
        }
        i += 1
      }
      res
    })
    df.withColumn(target, fn(col(bfCol), col(idCol).cast("long")))
  }
}
