package repro.core

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._

/** Plaintext similarity as a DataFrame column: the *unencoded upper bound*
  * every encoding in T1 is scored against. Bloom-filter Dice lives in
  * [[SimilarityExpressions]] as a Catalyst expression.
  */
object Similarity {

  /** Jaccard of two token arrays (plaintext q-grams). */
  def tokenJaccard(a: Column, b: Column): Column = {
    val f = udf((x: Seq[String], y: Seq[String]) =>
      QGrams.jaccard(Option(x).getOrElse(Seq.empty).toSet,
                     Option(y).getOrElse(Seq.empty).toSet))
    f(a, b)
  }
}
