package repro.matching

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.core.SimilarityExpressions

/** Turns candidate pairs into scored pairs `(id_a, id_b, sim)` by joining
  * the parties' encoded columns back onto the pair list — the "similarity
  * matching as DataFrame joins" dataflow at the heart of the reproduction.
  */
object Scoring {

  /** Score `cands` with one join per side, each carrying all of `cols`.
    * `sim` receives the a-side and the b-side columns, both in `cols` order.
    */
  def score(cands: DataFrame, a: DataFrame, b: DataFrame, cols: Seq[String],
            sim: (Seq[Column], Seq[Column]) => Column,
            idCol: String = "rec_id"): DataFrame = {
    def side(df: DataFrame, s: String): DataFrame =
      df.select((col(idCol).cast("long") as s"id_$s") +: cols.map(c => col(c) as s"${c}_$s"): _*)
    cands.join(side(a, "a"), "id_a")
      .join(side(b, "b"), "id_b")
      .select(col("id_a"), col("id_b"),
              sim(cols.map(c => col(s"${c}_a")), cols.map(c => col(s"${c}_b"))) as "sim")
  }

  /** Dice over Bloom-filter columns (Catalyst expression `dice_sim`). */
  def withDice(cands: DataFrame, a: DataFrame, b: DataFrame,
               bfCol: String = "bf", idCol: String = "rec_id"): DataFrame =
    score(cands, a, b, Seq(bfCol),
          (x, y) => SimilarityExpressions.diceSim(x.head, y.head), idCol)
}
