package repro.core

import repro.core.pattern.Pattern
import repro.core.repair.{DecisionTree, Predicates}

/** The DataVinci pipeline (§3): semantic abstraction → significant-pattern
  * learning → error detection → minimal abstract edit programs → learned
  * concretization → semantic re-concretization → heuristic ranking.
  */
object DataVinci {

  /** Pipeline configuration: δ and the four Table-9 ablation switches. The
    * other parameters are the paper's fixed defaults.
    */
  final case class Config(
      /** Coverage threshold δ for significant patterns. Calibrated so the
        * paper's worked examples behave identically: `C[0-9]{2}` at 3/11
        * coverage is significant (Fig. 8) while a 1-of-5 singleton cluster
        * is not (the `S1.4` example of §5.1).
        */
      delta: Double = 0.25,
      /** Semantic abstraction on/off ("No semantic abstraction" ablation). */
      semantic: Boolean = true,
      /** Reuse the original substring when re-concretizing masks
        * ("Limited semantic concretization" ablation). */
      limitedSemanticConcretization: Boolean = false,
      /** Learn concretization constraints; when false, all candidates are
        * enumerated and ranked ("No learned concretization" ablation). */
      learnedConcretization: Boolean = true,
      /** Rank only by edit distance ("Edit distance ranking" ablation). */
      editDistanceRanking: Boolean = false,
  ) {
    /** Max number of learned patterns (FlashProfile's k). */
    val maxPatterns: Int = 8
    /** Decision-tree accuracy filter α. */
    val alpha: Double = DecisionTree.DefaultAlpha
    /** Cap on enumerated candidates per (error, edit program). */
    val maxCandidates: Int = 30
    /** Ranker weights (§3.5). */
    val weights: Ranker.Weights = Ranker.default
  }

  /** Detection + repair outcome for one cell. */
  final case class CellRepair(row: Int, original: String,
                              suggestion: Option[String],
                              candidates: Vector[Ranker.Scored])

  /** Result of cleaning one column. */
  final case class ColumnResult(colIdx: Int,
                                significant: Vector[(Pattern, Double)],
                                errors: Set[Int],
                                repairs: Map[Int, CellRepair]) {
    def suggestionFor(row: Int): Option[String] = repairs.get(row).flatMap(_.suggestion)
  }

  /** Clean a single column of `table`. `featsOpt` lets callers share the
    * per-table predicate features across columns.
    */
  def cleanColumn(table: Table, colIdx: Int, cfg: Config = Config(),
                  featsOpt: Option[Vector[Predicates.Feature]] = None): ColumnResult =
    cleanModel(new PatternModel(table, colIdx, 0 until table.numRows, cfg,
      featsOpt.getOrElse(Predicates.featuresOf(table))))

  /** Clean every column of `table`. The columns share one set of predicate
    * features, built when a concretizer's slot tree first searches a split.
    */
  def cleanTable(table: Table, cfg: Config = Config()): Map[Int, ColumnResult] = {
    lazy val feats = Predicates.featuresOf(table)
    table.cols.indices.map(c => c -> cleanModel(new PatternModel(table, c, 0 until table.numRows, cfg, feats))).toMap
  }

  /** Detect and repair with a model trained on all rows of its column. */
  private[core] def cleanModel(m: PatternModel): ColumnResult = {
    val sig = m.significant
    if (sig.isEmpty) return ColumnResult(m.colIdx, sig, Set.empty, Map.empty)
    // a value is an error when it misses every significant pattern, or when
    // the LLM had to fuzzy-repair a semantic substring while masking (§3.2:
    // such values mask *into* the language and need the semantic signal)
    val rows = m.values.indices
    val errors = m.misses(rows) ++
      m.dict.filterRows(rows)(r => m.mvs(r).occs.exists(o => o.fuzzy && o.suggestion != o.original))
    ColumnResult(m.colIdx, sig, errors, m.repairs(errors))
  }
}
