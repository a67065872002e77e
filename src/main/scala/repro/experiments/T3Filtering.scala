package repro.experiments

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.blocking.{Candidates, StandardBlocking}
import repro.core.Encodings
import repro.data.PersonGen
import repro.filtering.PPJoin
import repro.metablocking.{BlockPurging, WeightedNodePruning}

/** T3 — meta-blocking and filtering: how far can the comparison space be
  * pruned without losing matches. Progression:
  * soundex blocking → + block purging → + WNP meta-blocking (CBS weights
  * over two blocking functions) → PPJoin length+prefix+position filtering →
  * PPJoin verified (exact Jaccard ≥ t).
  */
object T3Filtering {

  case class Row(method: String, candidates: Long, pc: Double, pq: Double,
                 millis: Long)

  // jaccardT=0.7: popular name+city combos already share ~2/3 of their
  // q-grams, so a 0.5 threshold floods the join with non-match pairs that
  // genuinely exceed it; 0.7 sits between those and true typo'd matches
  case class Params(n: Long = 10000, overlapFrac: Double = 0.5,
                    corruption: Double = 0.3, purgeMaxComparisons: Long = 20000,
                    jaccardT: Double = 0.7, secret: String = "s3cret",
                    seed: Long = 42L)

  def run(spark: SparkSession, p: Params = Params()): Seq[Row] = {
    val (a0, b0) = PersonGen.pair(spark, p.n, p.n, (p.n * p.overlapFrac).toLong,
                                  p.corruption, maxEdits = 2, seed = p.seed)
    def enrich(df: DataFrame): DataFrame =
      Encodings.withTokens(
        Encodings.withSoundexKey(
          Encodings.withSoundexKey(df, Seq("fname", "lname"), p.secret, out = "bkey1"),
          Seq("lname", "city"), p.secret, out = "bkey2"),
        Seq("fname", "lname", "city"))
    val a = enrich(a0).persist(); val b = enrich(b0).persist()
    a.count(); b.count()
    val truth = PersonGen.truthPairs(a, b).persist()
    truth.count()

    def measure(name: String)(gen: => DataFrame): Row = {
      val t0 = System.nanoTime()
      val cand = Candidates.canonical(gen).persist()
      val nCand = cand.count()
      val ms = (System.nanoTime() - t0) / 1000000L
      val r = Row(name, nCand, Candidates.pairsCompleteness(cand, truth),
                  Candidates.pairsQuality(cand, truth), ms)
      cand.unpersist()
      r
    }

    val soundex = measure("soundex-block")(StandardBlocking.candidates(a, b, "bkey1"))
    val purged = measure("+purging")(
      BlockPurging.candidates(a, b, "bkey1", p.purgeMaxComparisons))
    val wnp = measure("+wnp-metablocking") {
      // CBS weights over both blocking functions, oversized blocks purged
      val bad1 = BlockPurging.purgedKeys(a, b, "bkey1", p.purgeMaxComparisons)
      val bad2 = BlockPurging.purgedKeys(a, b, "bkey2", p.purgeMaxComparisons)
      def keysOf(df: DataFrame): DataFrame =
        BlockPurging.keys(df, "bkey1", bad1).unionByName(BlockPurging.keys(df, "bkey2", bad2))
      WeightedNodePruning.candidates(keysOf(a), keysOf(b))
    }

    // PPJoin over hashed q-gram tokens
    val hashTok = udf((ts: Seq[String]) =>
      ts.map(t => repro.core.Hashing.tokenHashMod(t, p.secret, 0x77, 1 << 24)).distinct)
    val aTok = a.select(col("rec_id") as "id", hashTok(col("tokens")) as "tokens")
    val bTok = b.select(col("rec_id") as "id", hashTok(col("tokens")) as "tokens")
    val t0 = System.nanoTime()
    val (ar, br) = PPJoin.rankTokens(aTok, bTok)
    val arp = ar.persist(); val brp = br.persist()
    arp.count(); brp.count()
    val rankMs = (System.nanoTime() - t0) / 1000000L

    val ppCand = measure("ppjoin-len+prefix+pos")(PPJoin.candidates(arp, brp, p.jaccardT))
    val ppVerified = measure("ppjoin-verified")(
      PPJoin.verify(PPJoin.candidates(arp, brp, p.jaccardT), arp, brp, p.jaccardT))
    arp.unpersist(); brp.unpersist()
    a.unpersist(); b.unpersist(); truth.unpersist()

    Seq(soundex, purged, wnp,
        ppCand.copy(millis = ppCand.millis + rankMs),
        ppVerified.copy(millis = ppVerified.millis + rankMs))
  }

  /** EXPERIMENTS.md T3's claim shape, as verdicts ([[Fmt.verdicts]]). */
  def check(rows: Seq[Row]): Seq[String] = Fmt.verdicts {
    val m = rows.map(r => r.method -> r).toMap
    val (block, verified) = (m("soundex-block"), m("ppjoin-verified"))
    Seq(Fmt.claim("+purging", "candidates", m("+purging").candidates, "<", block.candidates,
                  "soundex-block "),
        Fmt.claim("+wnp-metablocking", "PC", m("+wnp-metablocking").pc, ">", 0.7),
        Fmt.claim("ppjoin-verified", "candidates", verified.candidates, "<=",
                  m("ppjoin-len+prefix+pos").candidates, "ppjoin-len+prefix+pos "),
        Fmt.claim("ppjoin-verified", "PQ", verified.pq, ">", block.pq, "soundex-block PQ "),
        Fmt.claim("ppjoin-verified", "PC", verified.pc, ">", 0.6))
  }

  def format(rows: Seq[Row]): String =
    Fmt.table("T3 — meta-blocking & filtering: pruning vs completeness",
      Seq("method", "candidates", "PC", "PQ", "time"),
      rows.map(r => Seq(r.method, r.candidates.toString, Fmt.f(r.pc),
                        Fmt.f(r.pq), Fmt.secs(r.millis))))
}
