package pprlbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.{Encodings, Hashing}
import repro.data.PersonGen
import repro.filtering.PPJoin

import scala.collection.parallel.CollectionConverters._

/** `ppjoin_3k`: T3's PPJoin path — hashed q-gram tokens of fname, lname
  * and city for 3k × 3k records (1.5k shared, 30% corruption), ranked,
  * length + prefix filtered and verified at Jaccard 0.7. No Bloom filter,
  * LSH or Dice runs here.
  */
object PPJoinFiltering extends WorkloadKind("ppjoin_3k", warmups = 2) {
  def setup(spark: SparkSession, seed: Long): Workload = new PPJoinFiltering(spark, seed)

  val Fields: Seq[String] = Seq("fname", "lname", "city")
  val Threshold = 0.7
  val Secret = "s3cret"
}

final class PPJoinFiltering(spark: SparkSession, seed: Long) extends Workload {
  import PPJoinFiltering._

  private val (personsA, personsB) = PersonGen.pair(spark, 3000, 3000, 1500, 0.3, seed = seed)

  /** `(id, tokens: array<int>)`: the record's q-grams hashed as T3 hashes them. */
  private def hashedTokens(df: DataFrame): DataFrame = {
    val hashTok = udf((ts: Seq[String]) =>
      ts.map(t => Hashing.tokenHashMod(t, Secret, 0x77, 1 << 24)).distinct)
    Encodings.withTokens(df, Fields)
      .select(col("rec_id") as "id", hashTok(col("tokens")) as "tokens")
  }

  val inputs: Seq[DataFrame] = Workload.cacheAll(Seq(hashedTokens(personsA), hashedTokens(personsB)))
  val records: Long = 6000L

  private var truth: Set[(Long, Long)] = Set.empty
  private var expected: Set[(Long, Long)] = Set.empty

  /** Exact Jaccard ≥ t over all 3k × 3k pairs of sorted token arrays. */
  private def bruteForce(): Set[(Long, Long)] = {
    def sets(df: DataFrame) = df.collect().map(r => r.getLong(0) -> r.getSeq[Int](1).toArray.sorted)
    val (as, bs) = (sets(inputs(0)), sets(inputs(1)))
    as.toSeq.par.flatMap { case (ia, x) =>
      bs.iterator.filter { case (_, y) =>
        var i = 0; var j = 0; var inter = 0
        while (i < x.length && j < y.length) {
          if (x(i) == y(j)) { inter += 1; i += 1; j += 1 }
          else if (x(i) < y(j)) i += 1
          else j += 1
        }
        val union = x.length + y.length - inter
        union > 0 && inter.toDouble / union >= Threshold
      }.map { case (ib, _) => (ia, ib) }.toSeq
    }.seq.toSet
  }

  def prepare(): Unit = {
    truth = Workload.truthPairs(Seq(personsA, personsB))
    expected = bruteForce()
  }

  final class Out(val ranked: Seq[DataFrame], val verified: DataFrame, val nVerified: Long)
      extends RunOutput {
    def pairs: DataFrame = verified
    def release(): Unit = (verified +: ranked).foreach(_.unpersist())
  }

  private def rank(in: Seq[DataFrame]): Seq[DataFrame] = {
    val (ar, br) = PPJoin.rankTokens(in(0), in(1))
    Workload.cacheAll(Seq(ar, br))
  }

  private def verify(cands: DataFrame, ranked: Seq[DataFrame]): (DataFrame, Long) = {
    val v = PPJoin.verify(cands, ranked(0), ranked(1), Threshold).select("id_a", "id_b").persist()
    (v, v.count())
  }

  /** A quarter of each party: warms the same code at a fraction of the cost. */
  override def warmupInputs: Seq[DataFrame] = inputs.map(_.where(col("id") % 4 === 0))

  def runOn(in: Seq[DataFrame]): Out = {
    val ranked = rank(in)
    val (v, n) = verify(PPJoin.candidates(ranked(0), ranked(1), Threshold), ranked)
    new Out(ranked, v, n)
  }

  /** The verified set is exactly the brute-force answer, which also shows
    * the length and prefix filters dropped no qualifying pair.
    */
  def check(out: Out): Seq[String] = {
    val got = Workload.collectPairs(out.verified).toSet
    Option.when(got != expected)(
      s"verified ${got.size} pairs, brute force ${expected.size}; " +
        s"${(expected -- got).size} missing, ${(got -- expected).size} extra").toSeq
  }

  def f1(out: Out): Double = Workload.f1(Workload.collectPairs(out.verified).toSet, truth)

  def counts(out: Out): Seq[(String, Long)] = Seq("verified" -> out.nVerified)

  def traced(t: Tracer): Traced = {
    val ranked = t.span("rank")(rank(inputs))
    val (cands, nCands) = t.span("prefix") {
      val c = PPJoin.candidates(ranked(0), ranked(1), Threshold).persist()
      (c, c.count())
    }
    val (verified, nVerified) = t.span("verify")(verify(cands, ranked))
    val digest = Workload.digest(verified)
    (Seq(cands, verified) ++ ranked).foreach(_.unpersist())
    Traced(digest, Map(
      "filtering.rank_s" -> t.seconds("rank"),
      "filtering.prefix_s" -> t.seconds("prefix"),
      "filtering.verify_s" -> t.seconds("verify"),
      "filtering.prefix_pairs" -> nCands.toDouble,
      "filtering.verified_pairs" -> nVerified.toDouble,
      "filtering.useful_ratio" -> nVerified.toDouble / nCands), Nil)
  }

  /** CLKs of this workload's records; only the kernel probes use them. */
  def kernelFilters: (Array[Array[Byte]], Array[Array[Byte]]) =
    (Workload.referenceClks(personsA).values.toArray, Workload.referenceClks(personsB).values.toArray)
}
