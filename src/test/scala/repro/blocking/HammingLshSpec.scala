package repro.blocking

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Encodings
import repro.data.PersonGen

class HammingLshSpec extends SparkSpec {

  private val L = 512
  private def encoded(party: Int, n: Int, corr: Double = 0.0) =
    Encodings.withClk(PersonGen.database(spark, party, 0, n, corr, seed = 31L),
                      Seq("fname", "lname"), l = L, k = 20, secret = "lsh")

  /** Candidates over uniformly sampled positions (seed 7). */
  private def uniform(a: DataFrame, b: DataFrame, tables: Int, bits: Int) =
    HammingLsh.candidatesWithPositions(a, b, "bf", HammingLsh.samplePositions(L, tables, bits, 7L))

  test("samplePositions deterministic in seed") {
    val a = HammingLsh.samplePositions(128, 5, 10, 3L)
    val b = HammingLsh.samplePositions(128, 5, 10, 3L)
    assert(a.map(_.toSeq).toSeq == b.map(_.toSeq).toSeq)
  }
  test("samplePositions within range, distinct per table") {
    val ps = HammingLsh.samplePositions(128, 10, 16, 5L)
    assert(ps.length == 10)
    for (t <- ps) {
      assert(t.length == 16)
      assert(t.distinct.length == 16)
      assert(t.forall(p => p >= 0 && p < 128))
    }
  }
  test("samplePositions rejects beta > 63") {
    assertThrows[IllegalArgumentException](HammingLsh.samplePositions(128, 2, 64, 1L))
  }
  test("samplePositions rejects beta > l") {
    assertThrows[IllegalArgumentException](HammingLsh.samplePositions(16, 2, 20, 1L))
  }

  test("keys emits one row per table per record") {
    val positions = HammingLsh.samplePositions(L, 8, 12, 7L)
    val k = HammingLsh.keys(encoded(1, 20), "bf", positions)
    assert(k.count() == 20 * 8)
    assert(k.columns.toSeq == Seq("id", "t", "key"))
  }
  test("identical records collide in every table") {
    val a = encoded(1, 30)
    val b = encoded(2, 30) // same entities, clean → identical filters
    val cand = uniform(a, b, tables = 5, bits = 12)
    val truth = PersonGen.truthPairs(a, b)
    assert(Candidates.pairsCompleteness(cand, truth) == 1.0)
  }
  test("corrupted matches are still mostly found (LSH recall)") {
    val a = encoded(1, 400)
    val b = encoded(2, 400, corr = 0.5)
    val cand = uniform(a, b, tables = 30, bits = 16)
    val pc = Candidates.pairsCompleteness(cand, PersonGen.truthPairs(a, b))
    assert(pc > 0.9, s"PC=$pc")
  }
  test("candidates prune the cross product") {
    val a = encoded(1, 400)
    val b = encoded(2, 400, corr = 0.5)
    val n = uniform(a, b, tables = 30, bits = 16).count()
    assert(n < 400L * 400L / 4, s"$n pairs left of 160000")
  }
  test("more tables increase recall") {
    val a = encoded(1, 300)
    val b = encoded(2, 300, corr = 0.6)
    val truth = PersonGen.truthPairs(a, b)
    val pc1 = Candidates.pairsCompleteness(
      uniform(a, b, tables = 2, bits = 24), truth)
    val pc2 = Candidates.pairsCompleteness(
      uniform(a, b, tables = 30, bits = 24), truth)
    assert(pc2 >= pc1)
    assert(pc2 > 0.5)
  }
  test("occupancy counts per-position set frequency") {
    val a = Array[Byte](0x03, 0x00) // bits 0,1 set
    val b = Array[Byte](0x01, 0x00) // bit 0 set
    val occ = HammingLsh.occupancy(Seq(a, b), 16)
    assert(occ(0) == 1.0 && occ(1) == 0.5)
    assert(occ.drop(2).forall(_ == 0.0))
  }
  test("occupancy rejects empty sample") {
    assertThrows[IllegalArgumentException](HammingLsh.occupancy(Seq.empty, 8))
  }
  test("entropy-aware sampling avoids near-constant bits") {
    val sample = encoded(1, 300).select("bf").collect().map(_.getAs[Array[Byte]](0)).toSeq
    val occ = HammingLsh.occupancy(sample, L)
    val ps = HammingLsh.samplePositionsEntropyAware(sample, L, 10, 16, 3L)
    assert(ps.flatten.forall(p => occ(p) >= 0.2 && occ(p) <= 0.8))
    assert(ps.length == 10)
    assert(ps.forall(t => t.length == 16 && t.distinct.length == 16))
  }
  test("entropy-aware sampling widens the band when needed") {
    // all-identical sample: every set bit has occupancy 1.0, unset bits 0.0
    val one = repro.core.BloomFilter.encode(Seq("x", "y", "z"), 64, 4, "s")
    val ps = HammingLsh.samplePositionsEntropyAware(Seq.fill(10)(one), 64, 2, 8, 1L)
    assert(ps.forall(_.length == 8)) // falls back to the widened band
  }
  test("entropy-aware candidates keep full recall on clean duplicates") {
    val a = encoded(1, 200)
    val b = encoded(2, 200)
    val sample = a.select("bf").collect().map(_.getAs[Array[Byte]](0)).toSeq
    val ps = HammingLsh.samplePositionsEntropyAware(sample, L, 20, 16, 7L)
    val cand = HammingLsh.candidatesWithPositions(a, b, "bf", ps)
    assert(Candidates.pairsCompleteness(cand, PersonGen.truthPairs(a, b)) == 1.0)
  }
  test("entropy-aware candidates are fewer than uniform on skewed data") {
    val a = encoded(1, 400)
    val b = encoded(2, 400, corr = 0.3)
    val sample = a.select("bf").collect().map(_.getAs[Array[Byte]](0)).toSeq
    val ps = HammingLsh.samplePositionsEntropyAware(sample, L, 30, 16, 7L)
    val nEntropy = HammingLsh.candidatesWithPositions(a, b, "bf", ps).count()
    val nUniform = uniform(a, b, tables = 30, bits = 16).count()
    assert(nEntropy <= nUniform, s"entropy $nEntropy vs uniform $nUniform")
  }

  test("collisionProbability formula sanity") {
    assert(HammingLsh.collisionProbability(1.0, 10, 16) == 1.0)
    assert(HammingLsh.collisionProbability(0.0, 10, 16) == 0.0)
    val p1 = HammingLsh.collisionProbability(0.9, 10, 16)
    val p2 = HammingLsh.collisionProbability(0.95, 10, 16)
    assert(p2 > p1)
  }
  test("empirical collision rate tracks the analytic formula") {
    // identical-bit fraction for clean duplicates is 1 → always collide;
    // two unrelated records agree on ~s of bits; measure vs formula loosely
    val a = encoded(1, 150)
    val b = encoded(2, 150, corr = 0.0)
    val cand = uniform(a, b, tables = 4, bits = 14)
    // all 150 true pairs must be present (s=1 → p=1)
    assert(Candidates.truePositives(cand, PersonGen.truthPairs(a, b)) == 150)
  }
  test("oracle: candidatesWithPositions equal DuckDB join of keys on (t, key)") {
    val a = encoded(1, 120)
    val b = encoded(2, 120, corr = 0.4)
    val positions = HammingLsh.samplePositions(L, 6, 10, 5L)
    val sparkOut = HammingLsh.candidatesWithPositions(a, b, "bf", positions)
      .select(col("id_a").cast("string") as "id_a", col("id_b").cast("string") as "id_b")
    assert(sparkOut.count() > 0)
    Oracle.assertEquivalent(sparkOut,
      "SELECT DISTINCT ka.id AS id_a, kb.id AS id_b FROM ka JOIN kb USING (t, key)",
      "ka" -> HammingLsh.keys(a, "bf", positions), "kb" -> HammingLsh.keys(b, "bf", positions))
  }
}
