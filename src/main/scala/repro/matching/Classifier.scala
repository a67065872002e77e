package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.blocking.Candidates

/** Match classification and linkage-quality evaluation.
  *
  * Scored pairs are `(id_a, id_b, sim)`. Classification is threshold-based
  * (the dominant practical choice in PPRL — supervised learners need
  * labels that a privacy-preserving setting cannot provide); quality is
  * precision/recall/F1 against ground-truth pairs.
  */
object Classifier {

  /** Precision / recall / F1 of `matches` against `truth` (pair form). */
  def prf(matches: DataFrame, truth: DataFrame): (Double, Double, Double) = {
    val m = Candidates.canonical(matches)
    val t = Candidates.canonical(truth)
    val tp = m.join(t, Seq("id_a", "id_b")).count().toDouble
    val nm = m.count().toDouble
    val nt = t.count().toDouble
    val p = if (nm == 0) 0.0 else tp / nm
    val r = if (nt == 0) 0.0 else tp / nt
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    (p, r, f1)
  }

  /** One-pass threshold sweep: for every t, (t, precision, recall, F1).
    * Joins truth once and aggregates all thresholds in a single action, so
    * sweeping costs one scan instead of |thresholds| scans.
    */
  def sweep(scored: DataFrame, truth: DataFrame, thresholds: Seq[Double])
      : Seq[(Double, Double, Double, Double)] = {
    val t = Candidates.canonical(truth).withColumn("is_match", lit(1L))
    val joined = scored.select("id_a", "id_b", "sim").distinct()
      .join(t, Seq("id_a", "id_b"), "left")
      .withColumn("is_match", coalesce(col("is_match"), lit(0L)))
    val aggs = thresholds.zipWithIndex.flatMap { case (th, i) =>
      Seq(sum(when(col("sim") >= th, 1L).otherwise(0L)) as s"pos_$i",
          sum(when(col("sim") >= th, col("is_match")).otherwise(0L)) as s"tp_$i")
    }
    val row = joined.agg(aggs.head, aggs.tail: _*).collect()(0)
    val nTruth = t.count().toDouble
    thresholds.zipWithIndex.map { case (th, i) =>
      val pos = row.getAs[Long](s"pos_$i").toDouble
      val tp = row.getAs[Long](s"tp_$i").toDouble
      val p = if (pos == 0) 0.0 else tp / pos
      val r = if (nTruth == 0) 0.0 else tp / nTruth
      val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
      (th, p, r, f1)
    }
  }

  /** Best-F1 row of a sweep: (threshold, precision, recall, f1). */
  def bestF1(scored: DataFrame, truth: DataFrame, thresholds: Seq[Double])
      : (Double, Double, Double, Double) =
    sweep(scored, truth, thresholds).maxBy(_._4)

  /** Greedy one-to-one matching via symmetric best rank: keep a pair iff
    * it is the top-similarity edge of *both* endpoints (ties broken by
    * id). The standard scalable approximation of stable 1-1 assignment
    * for de-duplicated sources.
    */
  def greedyOneToOne(scored: DataFrame): DataFrame = {
    val wa = Window.partitionBy("id_a").orderBy(col("sim").desc, col("id_b"))
    val wb = Window.partitionBy("id_b").orderBy(col("sim").desc, col("id_a"))
    scored
      .withColumn("ra", row_number().over(wa))
      .withColumn("rb", row_number().over(wb))
      .where(col("ra") === 1 && col("rb") === 1)
      .select("id_a", "id_b", "sim")
  }
}
