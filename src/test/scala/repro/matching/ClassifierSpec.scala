package repro.matching

import org.apache.spark.sql.functions._
import repro.SparkSpec

class ClassifierSpec extends SparkSpec {
  import spark.implicits._

  private def scored = Seq(
    (1L, 10L, 0.95), (2L, 20L, 0.85), (3L, 30L, 0.70), (4L, 40L, 0.40),
    (5L, 50L, 0.90), (1L, 20L, 0.60),
  ).toDF("id_a", "id_b", "sim")

  private def truth = Seq((1L, 10L), (2L, 20L), (3L, 30L), (6L, 60L))
    .toDF("id_a", "id_b")

  test("prf computes precision, recall, F1") {
    val matches = Seq((1L, 10L), (2L, 20L), (5L, 50L)).toDF("id_a", "id_b")
    val (p, r, f1) = Classifier.prf(matches, truth)
    assert(math.abs(p - 2.0 / 3) < 1e-12)
    assert(math.abs(r - 0.5) < 1e-12)
    assert(math.abs(f1 - 2 * (2.0 / 3) * 0.5 / (2.0 / 3 + 0.5)) < 1e-12)
  }
  test("prf perfect match") {
    val (p, r, f1) = Classifier.prf(truth, truth)
    assert(p == 1.0 && r == 1.0 && f1 == 1.0)
  }
  test("prf empty matches") {
    val (p, r, f1) = Classifier.prf(Seq.empty[(Long, Long)].toDF("id_a", "id_b"), truth)
    assert(p == 0.0 && r == 0.0 && f1 == 0.0)
  }

  test("sweep returns one row per threshold, matching prf") {
    val rows = Classifier.sweep(scored, truth, Seq(0.8, 0.5))
    assert(rows.size == 2)
    val (t8, p8, r8, _) = rows.head
    assert(t8 == 0.8)
    val (pe, re, _) = Classifier.prf(scored.where(col("sim") >= 0.8), truth)
    assert(math.abs(p8 - pe) < 1e-12 && math.abs(r8 - re) < 1e-12)
  }
  test("sweep recall is monotone non-increasing in threshold") {
    val rows = Classifier.sweep(scored, truth, Seq(0.3, 0.5, 0.7, 0.9))
    val recalls = rows.map(_._3)
    assert(recalls.sliding(2).forall { case Seq(a, b) => b <= a })
  }
  test("bestF1 picks the argmax threshold") {
    val best = Classifier.bestF1(scored, truth, Seq(0.3, 0.65, 0.8, 0.92))
    val all = Classifier.sweep(scored, truth, Seq(0.3, 0.65, 0.8, 0.92))
    assert(best._4 == all.map(_._4).max)
  }

  test("greedyOneToOne keeps mutually-best pairs only") {
    val s = Seq(
      (1L, 10L, 0.9), (1L, 20L, 0.8), (2L, 10L, 0.7), (2L, 20L, 0.95),
    ).toDF("id_a", "id_b", "sim")
    val kept = Classifier.greedyOneToOne(s).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    // best for 1 is 10 (0.9) and best for 10 is 1 (0.9) → keep
    // best for 2 is 20 (0.95) and best for 20 is 2 → keep
    assert(kept == Set((1L, 10L), (2L, 20L)))
  }
  test("greedyOneToOne drops one-sided best") {
    val s = Seq((1L, 10L, 0.9), (2L, 10L, 0.95)).toDF("id_a", "id_b", "sim")
    val kept = Classifier.greedyOneToOne(s).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(kept == Set((2L, 10L))) // 10's best is 2, so (1,10) dies
  }
  test("greedyOneToOne output is one-to-one") {
    val rnd = new scala.util.Random(3)
    val s = (for (a <- 1L to 30L; b <- 101L to 130L if rnd.nextDouble() < 0.3)
      yield (a, b, rnd.nextDouble())).toDF("id_a", "id_b", "sim")
    val kept = Classifier.greedyOneToOne(s).collect()
    assert(kept.map(_.getLong(0)).distinct.length == kept.length)
    assert(kept.map(_.getLong(1)).distinct.length == kept.length)
  }
  test("greedyOneToOne empty input") {
    val s = Seq.empty[(Long, Long, Double)].toDF("id_a", "id_b", "sim")
    assert(Classifier.greedyOneToOne(s).count() == 0)
  }
}
