package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.blocking.HammingLsh

/** Multi-party PPRL (p > 2 databases): pairwise private blocking +
  * matching between every party pair, connected-components clustering,
  * subset matching (entities in ≥ m of p parties), and the analytic
  * communication-pattern cost model for the "advanced communication
  * patterns" axis.
  *
  * Party identity is recoverable from `rec_id` (= partyTag·10^9 + ent_id,
  * see [[repro.data.PersonGen]]), which clustering uses to count distinct
  * parties per cluster without ever touching `ent_id`.
  */
object MultiParty {

  /** Match edges across all C(p,2) party pairs: Hamming-LSH candidates on
    * the shared `bfCol`, Dice-scored, kept at `threshold`. Also returns
    * the total number of scored comparisons.
    */
  def pairwiseEdges(parties: Seq[DataFrame], bfCol: String, l: Int,
                    tables: Int, bitsPerTable: Int, threshold: Double,
                    seed: Long = 7L): (DataFrame, Long) = {
    require(parties.size >= 2, "multi-party linkage needs >= 2 parties")
    val positions = HammingLsh.samplePositions(l, tables, bitsPerTable, seed)
    var comparisons = 0L
    val edges = (for {
      i <- parties.indices
      j <- parties.indices if i < j
    } yield {
      val cands = HammingLsh.candidatesWithPositions(parties(i), parties(j), bfCol, positions)
      comparisons += cands.count()
      Scoring.withDice(cands, parties(i), parties(j), bfCol)
        .where(col("sim") >= threshold)
        .select("id_a", "id_b")
    }).reduce(_ unionByName _)
    (edges, comparisons)
  }

  /** Entity clusters from match edges (connected components). */
  def clusters(edges: DataFrame, maxIter: Int = 20): DataFrame =
    Clustering.connectedComponents(edges, maxIter)

  /** Number of distinct parties represented in each cluster:
    * `(comp, parties, records)`.
    */
  def clusterPartyCounts(comp: DataFrame): DataFrame =
    comp.withColumn("party", (col("id") / 1000000000L).cast("long"))
      .groupBy("comp")
      .agg(countDistinct("party") as "parties", count("*") as "records")

  /** Number of clusters spanning at least `m` distinct parties — the
    * subset-matching query ("patients in ≥ m of p hospitals").
    */
  def subsetMatchCount(comp: DataFrame, m: Int): Long =
    clusterPartyCounts(comp).where(col("parties") >= m).count()

  /** Naive comparison count Σ_{i<j} n_i·n_j the blocking is saving over. */
  def naiveComparisons(sizes: Seq[Long]): Long =
    (for { i <- sizes.indices; j <- sizes.indices if i < j }
      yield sizes(i) * sizes(j)).sum

  /** One communication pattern's cost: protocol messages and bytes moved. */
  case class CommCost(pattern: String, messages: Long, bytes: Long)

  /** Analytic costs of moving `sizes(i)` encoded records of `recordBytes`
    * each under three patterns (DESIGN.md §6 — model, not sockets):
    *  - star/LU: every party ships its database to the linkage unit once;
    *  - ring: party i forwards everything accumulated so far to i+1, so
    *    early databases are re-shipped at every hop;
    *  - tree: parties merge pairwise over ⌈log2 p⌉ rounds, each round's
    *    senders shipping their accumulated share once.
    */
  def commCosts(sizes: Seq[Long], recordBytes: Long): Seq[CommCost] = {
    require(sizes.nonEmpty, "no parties")
    val p = sizes.size
    val star = CommCost("star/LU", p.toLong, sizes.map(_ * recordBytes).sum)

    // ring: hop i (1-based) ships sum of first i databases
    val ringBytes = (1 until p).map(i => sizes.take(i).sum * recordBytes).sum
    val ring = CommCost("ring", (p - 1).toLong, ringBytes)

    // tree: pair up, odd one out waits; senders ship accumulated sizes
    var level = sizes.map(_ * recordBytes)
    var treeBytes = 0L
    var treeMsgs = 0L
    while (level.size > 1) {
      val next = level.grouped(2).map {
        case Seq(x, y) => treeBytes += y; treeMsgs += 1; x + y
        case Seq(x)    => x
      }.toSeq
      level = next
    }
    Seq(star, ring, CommCost("tree", treeMsgs, treeBytes))
  }
}
