package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.blocking.HammingLsh
import repro.core.{BloomFilter, Encodings}
import repro.data.PersonGen

class MultiPartySpec extends SparkSpec {
  import spark.implicits._

  private def encodedParties(p: Int, universe: Long, corr: Double) =
    PersonGen.parties(spark, p, universe, 0.7, corr, seed = 71L).map(df =>
      // dob included so distinct entities with popular names stay separable
      Encodings.withClk(df, Seq("fname", "lname", "dob", "city"), l = 512, k = 15,
                        secret = "mp").select("rec_id", "ent_id", "bf"))

  test("pairwiseEdges links clean parties near-perfectly") {
    val parties = encodedParties(3, 300, 0.0).map(_.persist())
    val (edges, comparisons) = MultiParty.pairwiseEdges(
      parties, "bf", 512, tables = 15, bitsPerTable = 14, threshold = 0.9)
    val all = parties.reduce(_ unionByName _)
    val truth = PersonGen.truthPairs(all, all)
      .where(MultiParty.party(col("id_a")) < MultiParty.party(col("id_b")))
    val (p, r, f1) = Classifier.prf(edges, truth)
    assert(comparisons > 0)
    assert(r > 0.98, s"recall $r")
    assert(p > 0.95, s"precision $p")
    assert(f1 > 0.97)
    parties.foreach(_.unpersist())
  }
  test("oracle: pairwiseEdges equals per-pair LSH candidates at the reference Dice") {
    val parties = encodedParties(4, 250, 0.2).map(_.persist())
    val (l, tables, bits, t, seed) = (512, 15, 14, 0.8, 5L)
    val positions = HammingLsh.samplePositions(l, tables, bits, seed)
    val perPair = for (i <- parties.indices; j <- parties.indices if i < j)
      yield HammingLsh.candidatesWithPositions(parties(i), parties(j), "bf", positions)
        .as[(Long, Long)].collect().toSeq
    val bf = parties.flatMap(_.select("rec_id", "bf").as[(Long, Array[Byte])].collect()).toMap
    val expected = perPair.flatten.filter { case (a, b) => BloomFilter.dice(bf(a), bf(b)) >= t }
    val (edges, comparisons) = MultiParty.pairwiseEdges(parties, "bf", l, tables, bits, t, seed)
    assert(comparisons == perPair.map(_.size).sum)
    val got = edges.as[(Long, Long)].collect().toSeq
    assert(got.sorted == expected.sorted)
    assert(expected.nonEmpty && expected.size < comparisons, s"${expected.size} of $comparisons")
    parties.foreach(_.unpersist())
  }
  test("cluster pairs do not depend on partitioning, row order or party order") {
    val parties = encodedParties(3, 200, 0.2).map(_.persist())
    def linked(ps: Seq[DataFrame]): (Long, Set[(Long, Long)]) = {
      val (edges, comparisons) = MultiParty.pairwiseEdges(ps, "bf", 512, 15, 14, 0.8)
      (comparisons, Clustering.clusterPairs(MultiParty.clusters(edges)).as[(Long, Long)]
        .collect().toSet)
    }
    val reference = linked(parties)
    assert(reference._2.nonEmpty)
    for (parts <- Seq(1, 4, 16)) {
      val shuffled = parties.reverse.map(_.orderBy(rand(parts)).repartition(parts))
      assert(linked(shuffled) == reference, s"$parts partitions")
    }
    parties.foreach(_.unpersist())
  }
  test("pairwiseEdges rejects parties that do not carry one party tag each") {
    def enc(df: DataFrame) =
      Encodings.withClk(df, Seq("fname", "lname"), l = 512, k = 15, secret = "mp")
        .select("rec_id", "bf")
    def edges(ps: DataFrame*) = MultiParty.pairwiseEdges(ps.map(enc), "bf", 512, 15, 14, 0.9)
    val (a, b) = (PersonGen.database(spark, 1, 0L, 50L), PersonGen.database(spark, 2, 0L, 50L))
    val shared = intercept[IllegalArgumentException](
      edges(b, a, PersonGen.database(spark, 1, 50L, 100L)))
    assert(shared.getMessage.contains("party 2 shares party tag 1 with party 1"))
    val mixed = intercept[IllegalArgumentException](
      edges(a, b.union(PersonGen.database(spark, 3, 0L, 10L))))
    assert(mixed.getMessage.contains("party 1 carries party tags 2 to 3"))
  }
  test("clusters group one entity across parties") {
    val parties = encodedParties(3, 200, 0.0).map(_.persist())
    val (edges, _) = MultiParty.pairwiseEdges(
      parties, "bf", 512, 15, 14, 0.95)
    val comp = MultiParty.clusters(edges)
    // every cluster's records must share a single ent_id (clean data, t=.95)
    val withEnt = comp.join(
      parties.map(_.select("rec_id", "ent_id")).reduce(_ unionByName _)
        .withColumnRenamed("rec_id", "id"), "id")
    val impure = withEnt.groupBy("comp")
      .agg(countDistinct("ent_id") as "ents")
      .where(col("ents") > 1).count()
    assert(impure == 0, s"$impure impure clusters")
    parties.foreach(_.unpersist())
  }
  test("clusterPartyCounts counts distinct parties") {
    val comp = Seq(
      (1000000001L, 1L), (2000000001L, 1L), (3000000001L, 1L), // 3 parties
      (1000000002L, 2L), (2000000002L, 2L),                    // 2 parties
    ).toDF("id", "comp")
    val m = MultiParty.clusterPartyCounts(comp).collect()
      .map(r => r.getLong(0) -> (r.getLong(1), r.getLong(2))).toMap
    assert(m(1L) == ((3L, 3L)))
    assert(m(2L) == ((2L, 2L)))
  }
  test("subsetMatchCount thresholds on party span") {
    val comp = Seq(
      (1000000001L, 1L), (2000000001L, 1L), (3000000001L, 1L),
      (1000000002L, 2L), (2000000002L, 2L),
      (1000000003L, 3L),
    ).toDF("id", "comp")
    assert(MultiParty.subsetMatchCount(comp, 2) == 2)
    assert(MultiParty.subsetMatchCount(comp, 3) == 1)
    assert(MultiParty.subsetMatchCount(comp, 4) == 0)
  }
  test("naiveComparisons is sum of pairwise products") {
    assert(MultiParty.naiveComparisons(Seq(10L, 20L, 30L)) ==
      10 * 20 + 10 * 30 + 20 * 30)
    assert(MultiParty.naiveComparisons(Seq(5L)) == 0)
  }

  test("commCosts star model") {
    val costs = MultiParty.commCosts(Seq(100L, 200L, 300L), 128L).map(c => c.pattern -> c).toMap
    assert(costs("star/LU").messages == 3)
    assert(costs("star/LU").bytes == 600L * 128)
  }
  test("commCosts ring re-ships early databases") {
    val costs = MultiParty.commCosts(Seq(100L, 100L, 100L), 10L).map(c => c.pattern -> c).toMap
    // hops: 100, then 200 → 300 records * 10B
    assert(costs("ring").messages == 2)
    assert(costs("ring").bytes == (100L + 200L) * 10)
  }
  test("commCosts tree merges pairwise") {
    val costs = MultiParty.commCosts(Seq(100L, 100L, 100L, 100L), 10L).map(c => c.pattern -> c).toMap
    // round 1: two sends of 100; round 2: one send of 200 → 400 * 10B
    assert(costs("tree").messages == 3)
    assert(costs("tree").bytes == 400L * 10)
  }
  test("commCosts ring grows faster than star as p grows") {
    val sizes = Seq.fill(8)(1000L)
    val costs = MultiParty.commCosts(sizes, 100L).map(c => c.pattern -> c).toMap
    assert(costs("ring").bytes > costs("star/LU").bytes)
  }
}
