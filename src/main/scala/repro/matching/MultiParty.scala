package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.blocking.{Candidates, HammingLsh}

/** Multi-party PPRL (p > 2 databases): private blocking + matching across
  * every party pair in one dataflow, connected-components clustering,
  * subset matching (entities in ≥ m of p parties), and the analytic
  * communication-pattern cost model for the "advanced communication
  * patterns" axis.
  *
  * Party identity is recoverable from `rec_id` (= partyTag·10^9 + ent_id,
  * see [[repro.data.PersonGen]]) through [[party]], which pairs records
  * across parties and counts distinct parties per cluster without ever
  * touching `ent_id`.
  */
object MultiParty {

  /** Party tag of a `rec_id` column: `rec_id / 10^9`. */
  def party(id: Column): Column = (id / 1000000000L).cast("long")

  /** Match edges across all C(p,2) party pairs in one dataflow: the union
    * of the parties' `(rec_id, bfCol)` is keyed once on one set of
    * Hamming-LSH positions, one bucket join keeps the pairs with
    * `party(id_a) < party(id_b)`, and one Dice join keeps those at
    * `threshold`. Also returns the number of scored comparisons.
    *
    * Contract: all `rec_id`s of a party carry one [[party]] tag, and no
    * other party carries it; else `IllegalArgumentException` names the party.
    */
  def pairwiseEdges(parties: Seq[DataFrame], bfCol: String, l: Int,
                    tables: Int, bitsPerTable: Int, threshold: Double,
                    seed: Long = 7L): (DataFrame, Long) = {
    require(parties.size >= 2, "multi-party linkage needs >= 2 parties")
    val tags = parties.zipWithIndex
      .map { case (df, i) => df.select(lit(i) as "idx", party(col("rec_id")) as "tag") }
      .reduce(_ unionByName _).groupBy("idx").agg(min("tag"), max("tag")).collect()
      .map(r => (r.getInt(0), r.getLong(1), r.getLong(2))).sortBy(_._1)
    for ((i, lo, hi) <- tags) {
      require(lo == hi, s"party $i carries party tags $lo to $hi in its rec_ids, not one")
      val earlier = tags.collectFirst { case (j, t, _) if j < i && t == lo => j }
      require(earlier.isEmpty, s"party $i shares party tag $lo with party ${earlier.get}")
    }
    val all = parties.map(_.select("rec_id", bfCol)).reduce(_ unionByName _)
    val keys = HammingLsh.keys(all, bfCol, HammingLsh.samplePositions(l, tables, bitsPerTable, seed))
    val cands = Candidates.fromKeys(keys, keys).where(party(col("id_a")) < party(col("id_b")))
    val edges = Scoring.withDice(cands, all, all, bfCol).where(col("sim") >= threshold)
    (edges.select("id_a", "id_b"), cands.count())
  }

  /** Entity clusters from match edges (connected components). */
  def clusters(edges: DataFrame, maxIter: Int = 20): DataFrame =
    Clustering.connectedComponents(edges, maxIter)

  /** Distinct parties and records per cluster: `(comp, parties, records)`. */
  def clusterPartyCounts(comp: DataFrame): DataFrame =
    comp.withColumn("party", party(col("id")))
      .groupBy("comp")
      .agg(countDistinct("party") as "parties", count("*") as "records")

  /** Number of clusters spanning at least `m` distinct parties — the
    * subset-matching query ("patients in ≥ m of p hospitals").
    */
  def subsetMatchCount(comp: DataFrame, m: Int): Long =
    clusterPartyCounts(comp).where(col("parties") >= m).count()

  /** Naive comparison count Σ_{i<j} n_i·n_j the blocking is saving over. */
  def naiveComparisons(sizes: Seq[Long]): Long =
    (sizes.sum * sizes.sum - sizes.map(n => n * n).sum) / 2

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
    def tree(level: Seq[Long], msgs: Long, bytes: Long): CommCost =
      if (level.size <= 1) CommCost("tree", msgs, bytes)
      else {
        val sent = level.grouped(2).collect { case Seq(_, y) => y }.toSeq
        tree(level.grouped(2).map(_.sum).toSeq, msgs + sent.size, bytes + sent.sum)
      }
    Seq(star, ring, tree(sizes.map(_ * recordBytes), 0L, 0L))
  }
}
