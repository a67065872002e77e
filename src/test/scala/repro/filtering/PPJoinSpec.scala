package repro.filtering

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.core.{BloomFilter, Encodings, Hashing, QGrams}
import repro.data.PersonGen

class PPJoinSpec extends SparkSpec {
  import spark.implicits._

  test("bfPositions column matches kernel setPositions") {
    val df = Encodings.withClk(PersonGen.database(spark, 1, 0, 10),
                               Seq("fname"), l = 128, k = 5)
    val rows = df.select(col("bf"), PPJoin.bfPositions(col("bf")) as "pos").collect()
    rows.foreach { r =>
      assert(r.getSeq[Int](1) == BloomFilter.setPositions(r.getAs[Array[Byte]](0)))
    }
  }

  private def tok(pairs: (Long, Seq[Int])*) = pairs.toDF("id", "tokens")

  test("rankTokens orders by ascending document frequency") {
    val a = tok(1L -> Seq(100, 200), 2L -> Seq(100))
    val b = tok(10L -> Seq(100, 300))
    val (ar, _) = PPJoin.rankTokens(a, b)
    // df: 100→3, 200→1, 300→1 ⇒ rarest first: 200/300 get low ranks, 100 highest
    val toksOf1 = ar.where(col("id") === 1L).head.getSeq[Int](1)
    assert(toksOf1.size == 2)
    assert(toksOf1.last == 3, s"common token should rank last: $toksOf1") // 100 is most frequent
  }
  test("rankTokens preserves set sizes") {
    val a = tok(1L -> Seq(1, 2, 3), 2L -> Seq(2, 3))
    val b = tok(10L -> Seq(3, 4))
    val (ar, br) = PPJoin.rankTokens(a, b)
    assert(ar.where(col("id") === 1L).head.getSeq[Int](1).size == 3)
    assert(br.head.getSeq[Int](1).size == 2)
  }

  test("rankTokens counts a repeated token once") {
    val a = tok(1L -> Seq(7, 7, 7, 8))
    val b = tok(10L -> Seq(8, 9), 20L -> Seq(9))
    val (ar, br) = PPJoin.rankTokens(a, b)
    // document frequency 7→1, 8→2, 9→2: token 7 is the rarest, once
    assert(ar.head.getSeq[Int](1) == Seq(1, 2))
    val ver = PPJoin.verify(PPJoin.candidates(ar, br, 0.3), ar, br, 0.3).collect()
    assert(ver.map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq ==
      Seq((1L, 10L, 1.0 / 3)))
  }

  test("prefixLen column formula") {
    // |x|-ceil(t|x|)+1: n=4 → 4-3+1=2; n=10 → 10-8+1=3
    val df = Seq(4, 10).toDF("n")
    val vals = df.select(col("n"), PPJoin.prefixLen(col("n"), 0.75) as "p").orderBy("n")
      .collect().map(_.getAs[Number]("p").intValue())
    assert(vals.toSeq == Seq(2, 3))
  }

  /** Exact Jaccard of two token sets, in `candidates`' arithmetic. */
  private def jaccard(sa: Seq[Int], sb: Seq[Int]): Double = {
    val inter = sa.toSet.intersect(sb.toSet).size
    inter.toDouble / (sa.toSet.size + sb.toSet.size - inter)
  }

  /** Exact Jaccard ≥ t by brute force. */
  private def exactPairs(as: Seq[(Long, Seq[Int])], bs: Seq[(Long, Seq[Int])],
                         t: Double): Set[(Long, Long)] =
    (for ((ia, sa) <- as; (ib, sb) <- bs if jaccard(sa, sb) >= t) yield (ia, ib)).toSet

  /** Random sets over a small universe. Every other `b` set is an `a` set
    * with a few tokens dropped or added, so every threshold up to 0.9 has
    * qualifying pairs.
    */
  private def randomParties(seed: Int): (Seq[(Long, Seq[Int])], Seq[(Long, Seq[Int])]) = {
    val rnd = new scala.util.Random(seed)
    def randSet() = (0 until (5 + rnd.nextInt(16))).map(_ => rnd.nextInt(60)).distinct
    val as = (1L to 40L).map(i => i -> randSet())
    val bs = (101L to 140L).map { i =>
      if (i % 2 == 0) i -> randSet()
      else {
        val base = as(rnd.nextInt(as.size))._2
        val kept = base.filterNot(_ => rnd.nextDouble() < 0.15)
        i -> (kept ++ Seq.fill(rnd.nextInt(3))(rnd.nextInt(60))).distinct
      }
    }
    (as, bs)
  }

  private val thresholds = Seq(0.3, 0.5, 0.55, 0.7, 0.8, 0.9)

  private def pairsOf(df: DataFrame): Seq[(Long, Long)] =
    df.select("id_a", "id_b").collect().toSeq.map(r => (r.getLong(0), r.getLong(1)))

  test("candidates retain all pairs above threshold (no false dismissals)") {
    val (aSets, bSets) = randomParties(7)
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    for (t <- thresholds) {
      val cand = pairsOf(PPJoin.candidates(ar, br, t)).toSet
      val expected = exactPairs(aSets, bSets, t)
      assert(expected.nonEmpty, s"no qualifying pair at t=$t")
      val missed = expected -- cand
      assert(missed.isEmpty, s"t=$t: missed pairs $missed")
    }
  }
  test("candidates emit each pair at most once") {
    val (aSets, bSets) = randomParties(11)
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    for (t <- thresholds) {
      val cand = PPJoin.candidates(ar, br, t)
      assert(cand.count() == cand.distinct().count(), s"t=$t: repeated pairs")
    }
  }
  test("pairs exactly at the threshold survive every integer bound") {
    // In floating point 0.55·100 = 55.00000000000001, 55/0.55 = 99.99999999999999
    // and 0.8/1.8·(35+28) = 28.000000000000004: plain ceil/floor would drop
    // a subset y ⊂ x whose Jaccard equals t exactly, which verify accepts.
    for ((nx, ny, t) <- Seq((100, 55, 0.55), (35, 28, 0.8))) {
      for ((na, nb) <- Seq(nx -> ny, ny -> nx)) {
        val (ar, br) = PPJoin.rankTokens(tok(1L -> (1 to na)), tok(10L -> (1 to nb)))
        val cand = PPJoin.candidates(ar, br, t)
        assert(pairsOf(cand) == Seq((1L, 10L)), s"|a|=$na |b|=$nb t=$t")
        assert(pairsOf(PPJoin.verify(cand, ar, br, t)) == Seq((1L, 10L)))
      }
    }
  }
  test("position filter prunes a pair the length and prefix filters keep") {
    // x and y (10 tokens each) share only token 6. Fillers in b make 7..10
    // and 17..20 common, so 6 sits at position 5 in both rank orders:
    // inside the prefix (10 − 5 + 1 = 6) but with at most min(10−5, 10−5) = 5
    // shared tokens left, below α = ⌈0.5/1.5 · 20⌉ = 7.
    val x = 1 to 10
    val y = Seq(11, 12, 13, 14, 15, 6, 17, 18, 19, 20)
    val filler = Seq(7, 8, 9, 10, 17, 18, 19, 20)
    val (ar, br) = PPJoin.rankTokens(tok(1L -> x), tok(10L -> y, 20L -> filler, 30L -> filler))
    val t = 0.5
    val prefixA = ar.head.getSeq[Int](1).take(6).toSet
    val prefixB = br.where(col("id") === 10L).head.getSeq[Int](1).take(6).toSet
    assert(prefixA.intersect(prefixB).size == 1, "the pair shares a prefix token")
    assert(!pairsOf(PPJoin.candidates(ar, br, t)).contains((1L, 10L)))
  }
  test("candidates prune pairs that cannot reach the threshold") {
    val a = tok(1L -> Seq(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    val b = tok(10L -> Seq(11, 12), 20L -> Seq(1, 2, 3, 4, 5, 6, 7, 8, 9))
    val (ar, br) = PPJoin.rankTokens(a, b)
    val cand = PPJoin.candidates(ar, br, 0.8).collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet
    assert(!cand.contains((1L, 10L))) // length filter: 2 < 0.8*10
    assert(cand.contains((1L, 20L)))
  }
  test("verify computes exact jaccard and filters") {
    val a = tok(1L -> Seq(1, 2, 3, 4))
    val b = tok(10L -> Seq(1, 2, 3, 9), 20L -> Seq(1, 9, 8, 7))
    val (ar, br) = PPJoin.rankTokens(a, b)
    val cand = PPJoin.candidates(ar, br, 0.5)
    val ver = PPJoin.verify(cand, ar, br, 0.5).collect()
      .map(r => (r.getLong(0), r.getLong(1)) -> r.getDouble(2)).toMap
    assert(math.abs(ver((1L, 10L)) - 3.0 / 5) < 1e-12)
    assert(!ver.contains((1L, 20L))) // jaccard 1/7 < 0.5
  }
  test("verified results equal brute force exactly") {
    val (aSets, bSets) = randomParties(13)
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    for (t <- thresholds) {
      val got = pairsOf(PPJoin.verify(PPJoin.candidates(ar, br, t), ar, br, t)).toSet
      assert(got == exactPairs(aSets, bSets, t), s"t=$t")
    }
  }
  test("candidates carry the exact jaccard of every pair") {
    val (aSets, bSets) = randomParties(17)
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    val (aMap, bMap) = (aSets.toMap, bSets.toMap)
    for (t <- thresholds) {
      val rows = PPJoin.candidates(ar, br, t).collect()
      assert(rows.nonEmpty, s"t=$t")
      rows.foreach { r =>
        val (ia, ib) = (r.getAs[Long]("id_a"), r.getAs[Long]("id_b"))
        assert(r.getAs[Double]("jaccard") == jaccard(aMap(ia), bMap(ib)), s"t=$t ($ia, $ib)")
      }
    }
  }
  test("rankTokens equals a driver-side dense rank by (df, tok)") {
    val rnd = new scala.util.Random(19)
    def randSeq() = Seq.fill(rnd.nextInt(12))(rnd.nextInt(30) - 10) // repeats, negatives
    val aSets = (1L to 25L).map(_ -> randSeq()) :+ (26L -> Seq.empty[Int])
    val bSets = (101L to 125L).map(_ -> randSeq()) :+ (126L -> Seq.empty[Int])
    val all = aSets ++ bSets
    val df = all.flatMap(_._2.distinct).groupBy(identity).map { case (k, v) => k -> v.size.toLong }
    val rankOf = df.toSeq.sortBy { case (tok, n) => (n, tok) }.map(_._1).zipWithIndex
      .map { case (tok, i) => tok -> (i + 1) }.toMap
    def expected(sets: Seq[(Long, Seq[Int])]): Map[Long, Seq[Int]] =
      sets.collect { case (id, ts) if ts.nonEmpty => id -> ts.distinct.map(rankOf).sorted }.toMap
    def got(ranked: DataFrame): Map[Long, Seq[Int]] =
      ranked.collect().map(r => r.getLong(0) -> r.getSeq[Int](1)).toMap
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    assert(rankOf.values.toSet == (1 to rankOf.size).toSet)
    assert(got(ar) == expected(aSets))
    assert(got(br) == expected(bSets))
  }
  test("ranked plans contain no Window node") {
    val (aSets, bSets) = randomParties(7)
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    for (ranked <- Seq(ar, br)) {
      val plan = ranked.queryExecution.optimizedPlan
      assert(plan.collectFirst { case w: org.apache.spark.sql.catalyst.plans.logical.Window => w }
        .isEmpty, plan.toString)
    }
  }
  test("verified pairs do not depend on partitioning or row order") {
    val (aSets, bSets) = randomParties(23)
    val t = 0.55
    def verified(a: DataFrame, b: DataFrame): Set[(Long, Long, Double)] = {
      val (ar, br) = PPJoin.rankTokens(a, b)
      PPJoin.verify(PPJoin.candidates(ar, br, t), ar, br, t).collect()
        .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))).toSet
    }
    val reference = verified(tok(aSets: _*), tok(bSets: _*))
    assert(reference.map(p => (p._1, p._2)) == exactPairs(aSets, bSets, t))
    for (parts <- Seq(1, 4, 16)) {
      val rnd = new scala.util.Random(parts)
      def shuffled(sets: Seq[(Long, Seq[Int])]) = tok(rnd.shuffle(sets): _*).repartition(parts)
      assert(verified(shuffled(aSets), shuffled(bSets)) == reference, s"$parts partitions")
    }
  }
  test("verify rejects pairs that did not come from candidates") {
    val (ar, br) = PPJoin.rankTokens(tok(1L -> Seq(1)), tok(2L -> Seq(1)))
    val e = intercept[IllegalArgumentException](
      PPJoin.verify(Seq((1L, 2L)).toDF("id_a", "id_b"), ar, br, 0.5))
    assert(e.getMessage.contains("jaccard"))
  }
  test("threshold must be in (0,1]") {
    val (ar, br) = PPJoin.rankTokens(tok(1L -> Seq(1)), tok(2L -> Seq(1)))
    assertThrows[IllegalArgumentException](PPJoin.candidates(ar, br, 0.0))
    assertThrows[IllegalArgumentException](PPJoin.candidates(ar, br, 1.5))
  }
  test("lengthFilter bounds") {
    val pairs = Seq((1L, 2L, 10, 4), (1L, 3L, 10, 8), (1L, 4L, 10, 21))
      .toDF("id_a", "id_b", "len_a", "len_b")
    val kept = PPJoin.lengthFilter(pairs, "len_a", "len_b", 0.5).collect()
      .map(_.getLong(1)).toSet
    assert(kept == Set(3L)) // 4 < 5 fails; 8 in [5,20] ok; 21 > 20 fails
  }
  test("ppjoin on BF positions agrees with BF jaccard") {
    val df1 = Encodings.withClk(PersonGen.database(spark, 1, 0, 15),
                                Seq("fname", "lname"), l = 256, k = 8)
    val df2 = Encodings.withClk(PersonGen.database(spark, 2, 0, 15, 0.3, seed = 42L),
                                Seq("fname", "lname"), l = 256, k = 8)
    val a = df1.select(col("rec_id") as "id", PPJoin.bfPositions(col("bf")) as "tokens")
    val b = df2.select(col("rec_id") as "id", PPJoin.bfPositions(col("bf")) as "tokens")
    val (ar, br) = PPJoin.rankTokens(a, b)
    val ver = PPJoin.verify(PPJoin.candidates(ar, br, 0.6), ar, br, 0.6)
    // compare against direct BF jaccard cross product
    val direct = df1.select(col("rec_id") as "id_a", col("bf") as "bf_a")
      .crossJoin(df2.select(col("rec_id") as "id_b", col("bf") as "bf_b"))
      .collect()
      .filter(r => BloomFilter.jaccard(r.getAs[Array[Byte]](1), r.getAs[Array[Byte]](3)) >= 0.6)
      .map(r => (r.getLong(0), r.getLong(2))).toSet
    assert(ver.collect().map(r => (r.getLong(0), r.getLong(1))).toSet == direct)
  }
  test("oracle: verified jaccard equals DuckDB set computation") {
    val aSets = Seq(1L -> Seq(1, 2, 3, 4), 2L -> Seq(2, 3, 4, 5, 6))
    val bSets = Seq(10L -> Seq(1, 2, 3, 9), 20L -> Seq(4, 5, 6, 7))
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    val sparkOut = PPJoin.verify(PPJoin.candidates(ar, br, 0.3), ar, br, 0.3)
      .select(col("id_a").cast("string") as "id_a",
              col("id_b").cast("string") as "id_b",
              col("jaccard") as "jaccard")
    val aTok = tok(aSets: _*).select(col("id"), explode(col("tokens")) as "tok")
      .select(col("id").cast("string") as "id", col("tok").cast("string") as "tok")
    val bTok = tok(bSets: _*).select(col("id"), explode(col("tokens")) as "tok")
      .select(col("id").cast("string") as "id", col("tok").cast("string") as "tok")
    Oracle.assertEquivalent(sparkOut,
      """WITH inter AS (
        |  SELECT a.id ia, b.id ib, COUNT(*) c
        |  FROM a JOIN b ON a.tok = b.tok GROUP BY a.id, b.id
        |), ca AS (SELECT id, COUNT(*) n FROM a GROUP BY id),
        |   cb AS (SELECT id, COUNT(*) n FROM b GROUP BY id)
        |SELECT ia AS id_a, ib AS id_b,
        |       CAST(c AS DOUBLE) / (ca.n + cb.n - c) AS jaccard
        |FROM inter JOIN ca ON ca.id = ia JOIN cb ON cb.id = ib
        |WHERE CAST(c AS DOUBLE) / (ca.n + cb.n - c) >= 0.3""".stripMargin,
      "a" -> aTok, "b" -> bTok)
  }
  test("oracle: candidates cover every DuckDB exact-Jaccard pair") {
    val (aSets, bSets) = randomParties(29)
    val t = 0.55
    val (ar, br) = PPJoin.rankTokens(tok(aSets: _*), tok(bSets: _*))
    val cand = PPJoin.candidates(ar, br, t)
    def asStrings(df: DataFrame) =
      df.select(col("id_a").cast("string") as "id_a", col("id_b").cast("string") as "id_b")
    def tokTable(sets: Seq[(Long, Seq[Int])]) =
      tok(sets: _*).select(col("id").cast("string") as "id",
                           explode(col("tokens").cast("array<string>")) as "tok")
    // DuckDB marks each exact pair with whether `candidates` kept it; Spark's
    // verified pairs, all kept, must be exactly those pairs.
    Oracle.assertEquivalent(
      asStrings(PPJoin.verify(cand, ar, br, t)).withColumn("kept", lit(true)),
      """WITH inter AS (
        |  SELECT a.id ia, b.id ib, COUNT(*) c
        |  FROM a JOIN b ON a.tok = b.tok GROUP BY a.id, b.id
        |), na AS (SELECT id, COUNT(*) n FROM a GROUP BY id),
        |   nb AS (SELECT id, COUNT(*) n FROM b GROUP BY id),
        |exact AS (
        |  SELECT ia, ib FROM inter JOIN na ON na.id = ia JOIN nb ON nb.id = ib
        |  WHERE CAST(c AS DOUBLE) / (na.n + nb.n - c) >= CAST(0.55 AS DOUBLE)
        |)
        |SELECT ia AS id_a, ib AS id_b, cand.id_a IS NOT NULL AS kept
        |FROM exact LEFT JOIN cand ON cand.id_a = ia AND cand.id_b = ib""".stripMargin,
      "a" -> tokTable(aSets), "b" -> tokTable(bSets), "cand" -> asStrings(cand))
  }
}
