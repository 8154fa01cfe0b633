package repro.core

import repro.core.DataVinci.{CellRepair, Config}
import repro.core.pattern.{Pattern, PatternLearner}
import repro.core.repair.{Concretizer, Predicates}
import repro.semantics.{MaskedValue, SemanticMasker}

/** The pattern model of one column (§3): the column's masked values, the
  * significant patterns learned over `trainRows`, and, built on first use,
  * one concretizer per significant pattern. Every entry point is a caller:
  * `DataVinci.cleanColumn` trains on all rows with δ, `ExecutionGuided.clean`
  * trains on the succeeding rows with δ = 0 so every pattern is significant
  * (§3.6), and `DataVinciSpark.learnColumnModel` reads the patterns and masks
  * back out as regexes. Callers decide which rows are errors.
  *
  * `feats` is evaluated at most once, and only when a concretizer's slot
  * tree searches a split; a concretizer's examples are built at its first
  * label.
  */
private[core] final class PatternModel(table: Table, val colIdx: Int, trainRows: Seq[Int],
                                       cfg: Config, feats: => Vector[Predicates.Feature]) {
  val values: Vector[String] = table.col(colIdx).values
  val dict: Distinct = table.col(colIdx).distinct
  val mvs: Vector[MaskedValue] = {
    val raw = if (cfg.semantic) SemanticMasker.maskColumn(values) else values.map(MaskedValue(_, Vector.empty))
    if (cfg.limitedSemanticConcretization)
      raw.map(m => m.copy(occs = m.occs.map(o => o.copy(suggestion = o.original))))
    else raw
  }
  private val masked = mvs.map(_.masked)

  val significant: Vector[(Pattern, Double)] =
    PatternLearner.learn(trainRows.map(masked), cfg.maxPatterns).significant(cfg.delta)

  /** Rows of `rows` whose value misses every significant pattern. */
  def misses(rows: Iterable[Int]): Set[Int] =
    Distinct(masked).filterRows(rows)(r => !significant.exists(_._1.matches(masked(r)))).toSet

  private lazy val fs = feats

  private lazy val concretizers: Vector[(Pattern, Double, Concretizer)] = {
    val suggestions = mvs.map(_.occs.map(_.suggestion))
    significant.map { case (p, cov) => (p, cov, new Concretizer(table, fs, p, masked, suggestions, cfg.alpha)) }
  }

  /** Repair every row of `errors`, ranking candidates against the distinct
    * values of the training rows that are not errors.
    */
  def repairs(errors: Set[Int]): Map[Int, CellRepair] = {
    lazy val nonErrorValues =
      trainRows.iterator.filterNot(errors).map(dict.ids(_)).distinct.map(dict.values).toVector
    errors.iterator.map(r => r -> repair(r, nonErrorValues)).toMap
  }

  /** Repair one erroneous cell against every significant pattern and rank. */
  private def repair(row: Int, nonErrorValues: Vector[String]): CellRepair = {
    val original = values(row)
    val cands = concretizers.flatMap { case (p, cov, con) =>
      con.candidates(row, cfg.learnedConcretization, cfg.maxCandidates).collect {
        case (s, edits, cost) if s != original => Ranker.Candidate(s, p.pretty, cov, edits, cost)
      }
    }
    val ranked = Ranker.rank(original, cands, nonErrorValues, cfg.weights, cfg.editDistanceRanking)
    CellRepair(row, original, ranked.headOption.map(_.repaired), ranked.take(5))
  }
}
