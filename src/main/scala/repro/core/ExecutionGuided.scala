package repro.core

import repro.core.repair.Predicates
import repro.formulas.{Errors, Expr, FormulaEval}

/** Execution-guided repair (§3.6): run a column-transformation program over
  * the table, partition rows into successes and failures, learn patterns
  * *only over the succeeding input values* (all of which are treated as
  * significant), flag the failing inputs as data errors, and repair them with
  * the ordinary pattern-based procedure.
  *
  * §5.3's comparison point, plain DataVinci whose repairs are applied only
  * to the inputs of failing rows, is the evaluation harness's protocol
  * (`EvalHarness.runFormulas`), which holds every system to [[applied]].
  */
object ExecutionGuided {

  /** Outcome of execution-guided cleaning. */
  final case class Result(
      /** Rows whose formula output was an error before repairs. */
      failingBefore: Set[Int],
      /** Rows still failing after repairs are applied. */
      failingAfter: Set[Int],
      /** Suggested repairs: (colIdx, row) → repaired value. */
      repairs: Map[(Int, Int), String],
      /** The table with repairs applied. */
      repairedTable: Table,
  )

  /** Rows for which the formula evaluates to an error value. */
  def failingRows(table: Table, formula: Expr): Set[Int] = {
    val order = table.cols.map(_.name)
    (0 until table.numRows).filter { r =>
      Errors.isError(FormulaEval.evalToCell(formula, table.row(r), order))
    }.toSet
  }

  /** Clean the given input columns using the formula's execution signal. */
  def clean(table: Table, formula: Expr, inputCols: Vector[Int],
            cfg: DataVinci.Config = DataVinci.Config()): Result = {
    val before = failingRows(table, formula)
    if (before.isEmpty) return Result(before, before, Map.empty, table)
    lazy val feats = Predicates.featuresOf(table)
    val succeeding = (0 until table.numRows).filterNot(before)
    val repairs = inputCols.flatMap { c =>
      // every pattern learned over succeeding inputs is significant (§3.6);
      // a failing row's input is an error unless it already fits the
      // success-side language (multi-column: the fault may be elsewhere)
      val m = new PatternModel(table, c, succeeding, cfg.copy(delta = 0.0), feats)
      m.repairs(m.misses(before)).flatMap { case (r, cr) => cr.suggestion.map((c, r) -> _) }
    }.toMap
    applied(table, formula, before, repairs)
  }

  /** Apply `repairs` to `table` and evaluate the formula again: the one
    * repair-application step of Table 8, shared by execution-guided repair
    * and by every system the evaluation harness compares with it.
    */
  def applied(table: Table, formula: Expr, before: Set[Int],
              repairs: Map[(Int, Int), String]): Result = {
    val repaired = repairs.foldLeft(table) { case (t, ((c, r), s)) => t.updated(c, r, s) }
    Result(before, failingRows(repaired, formula), repairs, repaired)
  }
}
