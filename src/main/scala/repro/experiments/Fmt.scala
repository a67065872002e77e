package repro.experiments

/** Plain-text table formatting and claim verdicts shared by the tables,
  * so every experiment prints rows directly comparable to EXPERIMENTS.md.
  */
object Fmt {

  /** Aligned monospace table with a header rule. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]): String =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val rule = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (Seq(s"== $title", line(header), rule) ++ rows.map(line)).mkString("\n")
  }

  def f(d: Double, prec: Int = 3): String = s"%.${prec}f".format(d)
  def pct(d: Double): String = s"%.1f%%".format(d * 100)
  def secs(millis: Long): String = f(millis / 1000.0, 1) + "s"

  /** The failure message of each `(holds, message)` claim that fails; a
    * claim on a row the table lacks fails them all as "missing row".
    */
  def verdicts(claims: => Seq[(Boolean, String)]): Seq[String] =
    try claims.collect { case (false, msg) => msg }
    catch { case e: NoSuchElementException => Seq(s"missing row: ${e.getMessage}") }

  /** Claim that `row`'s `what`, `v`, is `op` (<, <=, >, >= or ==) `bound`;
    * `of` names the bound in the message when it is another cell.
    */
  def claim[N](row: String, what: String, v: N, op: String, bound: N, of: String = "")
              (implicit n: Numeric[N]): (Boolean, String) = {
    val holds = op match {
      case "<" => n.lt(v, bound); case "<=" => n.lteq(v, bound); case ">" => n.gt(v, bound)
      case ">=" => n.gteq(v, bound); case "==" => n.equiv(v, bound)
    }
    def num(x: N): String = x match { case d: Double => f(d, 4); case _ => x.toString }
    (holds, s"$row: $what ${num(v)} is not $op $of${num(bound)}")
  }
}
