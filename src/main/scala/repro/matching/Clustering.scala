package repro.matching

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Connected-components clustering of the match graph — the unsupervised
  * step that groups records of the same entity across ≥ 2 parties.
  *
  * Iterative min-label propagation in pure DataFrame operations: every
  * vertex starts with component = own id; each round every vertex adopts
  * the minimum component among itself and its neighbours; fixpoint when a
  * round changes nothing. Rounds needed = graph diameter, which for
  * entity-match graphs is tiny (clusters of ≤ p records), so the loop is
  * cheap; `localCheckpoint` truncates the growing lineage each round.
  */
object Clustering {

  /** Components of the undirected graph given by `edges (id_a, id_b)`.
    * Returns `(id, comp)` for every vertex that appears in an edge. Throws
    * if labels still change after `maxIter` rounds.
    */
  def connectedComponents(edges: DataFrame, maxIter: Int = 20): DataFrame = {
    val sym = edges.select(col("id_a") as "src", col("id_b") as "dst")
      .union(edges.select(col("id_b") as "src", col("id_a") as "dst"))
      .distinct().localCheckpoint()

    var comp = sym.select(col("src") as "id").distinct()
      .withColumn("comp", col("id")).localCheckpoint()

    var iter = 0
    var changed = 1L
    while (changed > 0 && iter < maxIter) {
      // component proposals flowing along edges
      val prop = sym.join(comp.withColumnRenamed("id", "src"), "src")
        .groupBy(col("dst") as "id").agg(min("comp") as "ncomp")
      // `old` rides along, so the round's changes are counted without a re-join
      val stepped = comp.join(prop, Seq("id"), "left")
        .select(col("id"), col("comp") as "old",
                least(col("comp"), coalesce(col("ncomp"), col("comp"))) as "comp")
      // pointer jumping: comp ← comp(comp), so labels race down chains in
      // O(log diameter) rounds instead of one hop per round
      val ptr = stepped.select(col("id") as "cid", col("comp") as "ccomp")
      val next = stepped.join(ptr, stepped("comp") === ptr("cid"), "left")
        .select(stepped("id") as "id", stepped("old") as "old",
                least(stepped("comp"),
                      coalesce(col("ccomp"), stepped("comp"))) as "comp")
        .localCheckpoint()
      changed = next.where(col("comp") =!= col("old")).count()
      comp = next.select("id", "comp")
      iter += 1
    }
    if (changed > 0)
      throw new IllegalStateException(s"connected components did not converge within " +
        s"maxIter=$maxIter rounds: $changed labels changed in the last round")
    comp
  }

  /** All intra-cluster cross pairs `(id_a, id_b)` with id_a < id_b — the
    * pairs view used to score cluster quality against truth pairs.
    */
  def clusterPairs(comp: DataFrame): DataFrame = {
    val l = comp.select(col("id") as "id_a", col("comp"))
    val r = comp.select(col("id") as "id_b", col("comp"))
    l.join(r, "comp").where(col("id_a") < col("id_b")).select("id_a", "id_b")
  }
}
