package pprlbench

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{BloomFilter, SimilarityExpressions}

/** The two costs that bound what a faster Dice kernel can buy: the
  * reference kernel alone, and `dice_sim` evaluated through Catalyst.
  */
object Kernels {

  private val Pairs = 200000
  private val Repeats = 5

  /** Pair i is `(as(i mod |as|), bs(7i mod |bs|))`: a fixed mix of
    * unrelated and matching filters.
    */
  private def pairIndex(i: Int, n: Int): Int = ((7L * i) % n).toInt

  /** `BloomFilter.dice` on one thread: median ns per pair over batches
    * of 200k pairs, after two dropped batches.
    */
  def diceNsPerPair(as: Array[Array[Byte]], bs: Array[Array[Byte]]): Double = {
    var sink = 0.0
    val times = (1 to Repeats + 2).map { _ =>
      val t0 = System.nanoTime()
      var i = 0
      while (i < Pairs) {
        sink += BloomFilter.dice(as(i % as.length), bs(pairIndex(i, bs.length)))
        i += 1
      }
      (System.nanoTime() - t0).toDouble / Pairs
    }
    require(!sink.isNaN)
    Main.median(times.drop(2))
  }

  /** `dice_sim` over a cached table of 200k already-joined pairs: median
    * wall ns per pair of a `sum(dice_sim(bf_a, bf_b))` scan on all cores,
    * after one dropped scan.
    */
  def diceExprNsPerPair(spark: SparkSession, as: Array[Array[Byte]], bs: Array[Array[Byte]]): Double = {
    val rows = (0 until Pairs).map(i => (as(i % as.length), bs(pairIndex(i, bs.length))))
    val pairs = spark.createDataFrame(rows).toDF("bf_a", "bf_b").persist()
    pairs.count()
    val times = (1 to Repeats + 1).map { _ =>
      val t0 = System.nanoTime()
      pairs.agg(sum(SimilarityExpressions.diceSim(col("bf_a"), col("bf_b")))).head()
      (System.nanoTime() - t0).toDouble / Pairs
    }
    pairs.unpersist()
    Main.median(times.drop(1))
  }
}
