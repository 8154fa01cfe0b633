package repro.baselines

import repro.core.Table

/** Detection + repair outcome for one column: the rows flagged as errors and
  * the repair suggestion per flagged row (absent when the system only
  * detects, or could not produce a repair).
  */
final case class ColumnOutcome(errors: Set[Int], repairs: Map[Int, String])

/** Uniform interface for every system in the evaluation (Table 4). */
trait CleaningSystem {
  def name: String

  /** Clean every column of `table`. */
  def clean(table: Table): Map[Int, ColumnOutcome]

  /** Clean with `labels(col)` = row indices of known errors provided as
    * supervision (Raha is run with the first 5 ground-truth errors per
    * column, §4.3); unsupervised systems ignore them.
    */
  def cleanWithLabels(table: Table, labels: Map[Int, Set[Int]]): Map[Int, ColumnOutcome] =
    clean(table)
}

/** Shared column statistics used by several baselines. */
object ColumnStats {
  /** Value frequencies. */
  def freq(values: Vector[String]): Map[String, Int] =
    values.groupBy(identity).view.mapValues(_.size).toMap

  /** Values occurring at least `n` times, most frequent first. */
  def frequentValues(values: Vector[String], n: Int = 2): Vector[String] =
    freq(values).toVector.filter(_._2 >= n).sortBy { case (v, c) => (-c, v) }.map(_._1)

  /** Coarse syntactic signature: maximal runs generalized to D/L/U/A plus
    * literal punctuation — the generalization language shared by
    * Auto-Detect-style systems.
    */
  def coarseSig(v: String): String = {
    val sb = new StringBuilder
    var i = 0
    while (i < v.length) {
      val c = v(i)
      if (c.isDigit) { while (i < v.length && v(i).isDigit) i += 1; sb.append('D') }
      else if (c.isLetter) {
        var upper = true; var lower = true
        while (i < v.length && v(i).isLetter) { upper &= v(i).isUpper; lower &= v(i).isLower; i += 1 }
        sb.append(if (upper) 'U' else if (lower) 'L' else 'A')
      }
      else { sb.append(c); i += 1 }
    }
    sb.toString
  }

  /** Share of each coarse signature in the column. */
  def sigShare(values: Vector[String]): Map[String, Double] = {
    val n = math.max(1, values.size)
    values.groupBy(coarseSig).view.mapValues(_.size.toDouble / n).toMap
  }
}
