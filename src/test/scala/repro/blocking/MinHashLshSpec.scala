package repro.blocking

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.Encodings
import repro.data.PersonGen

class MinHashLshSpec extends SparkSpec {

  private def tokened(party: Int, n: Int, corr: Double = 0.0) =
    Encodings.withTokens(PersonGen.database(spark, party, 0, n, corr, seed = 41L),
                         Seq("fname", "lname", "city"))

  test("signature deterministic") {
    val a = MinHashLsh.signature(Seq("ab", "bc"), "s", 16)
    val b = MinHashLsh.signature(Seq("ab", "bc"), "s", 16)
    assert(a.toSeq == b.toSeq)
  }
  test("signature order-insensitive") {
    assert(MinHashLsh.signature(Seq("ab", "bc", "cd"), "s", 32).toSeq ==
           MinHashLsh.signature(Seq("cd", "ab", "bc"), "s", 32).toSeq)
  }
  test("signature of empty set is sentinel") {
    assert(MinHashLsh.signature(Seq.empty, "s", 4).forall(_ == Int.MaxValue))
    assert(MinHashLsh.signature(null, "s", 4).forall(_ == Int.MaxValue))
  }
  test("signature agreement estimates jaccard") {
    val x = ('a' to 'z').map(_.toString)
    val y = ('a' to 'z').map(_.toString).drop(6) // jaccard = 20/26 ≈ 0.77
    val sx = MinHashLsh.signature(x, "s", 512)
    val sy = MinHashLsh.signature(y, "s", 512)
    val agree = sx.zip(sy).count { case (u, v) => u == v }.toDouble / 512
    assert(math.abs(agree - 20.0 / 26) < 0.08, s"agreement $agree")
  }
  test("keys emits one row per band") {
    val k = MinHashLsh.keys(tokened(1, 10), "tokens", "s", bands = 6, rows = 3)
    assert(k.count() == 60)
  }
  test("identical token sets collide in all bands") {
    val a = tokened(1, 40)
    val b = tokened(2, 40)
    val cand = MinHashLsh.candidates(a, b, "tokens", "s", bands = 5, rows = 4)
    assert(Candidates.pairsCompleteness(cand, PersonGen.truthPairs(a, b)) == 1.0)
  }
  test("corrupted matches mostly found with enough bands") {
    val a = tokened(1, 400)
    val b = tokened(2, 400, corr = 0.5)
    val cand = MinHashLsh.candidates(a, b, "tokens", "s", bands = 30, rows = 3)
    val pc = Candidates.pairsCompleteness(cand, PersonGen.truthPairs(a, b))
    assert(pc > 0.9, s"PC=$pc")
  }
  test("candidates prune the cross product") {
    val a = tokened(1, 400)
    val b = tokened(2, 400, corr = 0.5)
    val n = MinHashLsh.candidates(a, b, "tokens", "s", bands = 30, rows = 3).count()
    assert(n < 400L * 400L / 4, s"$n of 160000")
  }
  test("more rows per band increase precision (fewer candidates)") {
    val a = tokened(1, 300)
    val b = tokened(2, 300, corr = 0.3)
    val loose = MinHashLsh.candidates(a, b, "tokens", "s", bands = 20, rows = 1).count()
    val tight = MinHashLsh.candidates(a, b, "tokens", "s", bands = 20, rows = 5).count()
    assert(tight < loose)
  }
  test("collisionProbability formula sanity") {
    assert(MinHashLsh.collisionProbability(1.0, 10, 3) == 1.0)
    assert(MinHashLsh.collisionProbability(0.0, 10, 3) == 0.0)
    assert(MinHashLsh.collisionProbability(0.8, 30, 3) > 0.99)
  }
  test("oracle: candidates equal DuckDB join of keys on (t, key)") {
    val a = tokened(1, 120)
    val b = tokened(2, 120, corr = 0.4)
    val sparkOut = MinHashLsh.candidates(a, b, "tokens", "s", bands = 8, rows = 2)
      .select(col("id_a").cast("string") as "id_a", col("id_b").cast("string") as "id_b")
    assert(sparkOut.count() > 0)
    Oracle.assertEquivalent(sparkOut,
      "SELECT DISTINCT ka.id AS id_a, kb.id AS id_b FROM ka JOIN kb USING (t, key)",
      "ka" -> MinHashLsh.keys(a, "tokens", "s", bands = 8, rows = 2),
      "kb" -> MinHashLsh.keys(b, "tokens", "s", bands = 8, rows = 2))
  }
}
