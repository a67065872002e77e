package repro.core

import org.apache.spark.sql.{Column, ReproColumnBridge}
import org.apache.spark.sql.catalyst.expressions.{BinaryExpression, Expression}
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.types.{DataType, DoubleType}

/** Bloom-filter Dice as a Catalyst expression over `BinaryType` columns
  * (layering: the "new expression" extension point — DESIGN.md §3). The
  * expression delegates to the reference kernel in [[BloomFilter]], so the
  * relational layer and the pure kernel cannot drift apart; tests
  * additionally diff them pairwise.
  *
  * Inputs must be `BinaryType` Bloom filters of equal length; the kernel
  * rejects mismatched lengths at evaluation time.
  */
object SimilarityExpressions {

  /** Dice coefficient 2·|a∧b| / (|a|+|b|) of two equal-length filters. */
  case class DiceSim(left: Expression, right: Expression)
      extends BinaryExpression with CodegenFallback {
    override def dataType: DataType = DoubleType
    override def prettyName: String = "dice_sim"
    protected override def nullSafeEval(a: Any, b: Any): Any =
      BloomFilter.dice(a.asInstanceOf[Array[Byte]], b.asInstanceOf[Array[Byte]])
    protected override def withNewChildrenInternal(l: Expression, r: Expression): Expression =
      copy(left = l, right = r)
  }

  private def expr(c: Column): Expression = ReproColumnBridge.expression(c)

  /** `dice_sim` as a typed Column. */
  def diceSim(a: Column, b: Column): Column = ReproColumnBridge.column(DiceSim(expr(a), expr(b)))
}
