package repro.privacy

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.data.Names

/** Frequency-alignment attack on deterministic encodings.
  *
  * The canonical PPRL attack: an adversary who sees the encoded database
  * and knows the public value distribution (e.g. name frequencies) ranks
  * encoded patterns by observed frequency, ranks known values by expected
  * frequency, and aligns rank-for-rank. Deterministic one-to-one
  * encodings (HMAC keys, unsalted field Bloom filters) leak exactly this
  * rank structure; salting and BLIP destroy it.
  *
  * Privacy is reported as the re-identification rate: the fraction of
  * records whose true value the alignment guesses correctly.
  */
object FrequencyAttack {

  /** Public knowledge: expected Zipf frequency of each pool value. */
  def expectedFreq(spark: SparkSession, pool: Vector[String], alpha: Double): DataFrame = {
    import spark.implicits._
    val cdf = Names.zipfCdf(pool.size, alpha)
    val weights = cdf.zipWithIndex.map { case (c, i) =>
      (pool(i), if (i == 0) c else c - cdf(i - 1))
    }
    weights.toSeq.toDF("value", "weight")
  }

  /** Rank-alignment guesses: most frequent pattern ↦ most frequent value,
    * and so on, ties broken by pattern and by value. Returns `(pat,
    * guess)`. Both rankings are collected sorted and zipped on the driver:
    * a rank is a global order, and there is at most one pattern per record.
    */
  def alignment(encoded: DataFrame, encCol: String, population: DataFrame): DataFrame = {
    val pats = encoded
      .select(hex(col(encCol).cast("binary")) as "pat")
      .groupBy("pat").agg(count("*") as "cnt")
      .orderBy(col("cnt").desc, col("pat")).collect().map(_.getString(0))
    val vals = population.orderBy(col("weight").desc, col("value"))
      .select("value").collect().map(_.getString(0))
    encoded.sparkSession.createDataFrame(pats.zip(vals).toSeq).toDF("pat", "guess")
  }

  /** Fraction of records whose true value (`trueCol`) the frequency
    * alignment recovers from their encoding (`encCol`).
    */
  def reidentificationRate(encoded: DataFrame, encCol: String, trueCol: String,
                           population: DataFrame): Double = {
    val total = encoded.count()
    if (total == 0) return 0.0
    val guesses = alignment(encoded, encCol, population)
    val hits = encoded
      .select(hex(col(encCol).cast("binary")) as "pat", col(trueCol) as "truth")
      .join(guesses, Seq("pat"), "left")
      .where(col("guess") === col("truth"))
      .count()
    hits.toDouble / total
  }
}
