package repro.perfbench

import repro.core.{DataVinci, Ranker, Table}
import repro.core.pattern.{Pattern, PatternLearner}
import repro.core.repair.{Concretizer, Dag, EditDp, Predicates}
import repro.semantics.{MaskedValue, SemanticMasker}

/** Per-layer replay of the column pipeline, from outside the program.
  *
  * [[cleanColumn]] runs `DataVinci.cleanColumn` under a `core.clean` span and
  * replays its stages through each layer's public functions: masking,
  * pattern learning, matching, concretizer training, DAG + edit DP, and
  * ranking of the candidates the result exposes. The replay guard compares
  * the replayed significant patterns and error set (and the ranked head) with
  * what `cleanColumn` returned; on a mismatch the column's layer numbers are
  * dropped and counted, so no number describes a different pipeline.
  */
object Replay {

  /** Features shared by the columns of one table, built on first use under
    * a `repair.features` span (as `cleanTable` shares them).
    */
  final class SharedFeatures(table: Table, t: Trace) {
    private var built: Vector[Predicates.Feature] = null
    def get: Vector[Predicates.Feature] = {
      if (built == null) {
        built = t.span("repair.features")(Predicates.featuresOf(table))
        t.count("repair.features", built.size)
      }
      built
    }
  }

  /** Masking, learning and detection stages shared by every replay. */
  final case class Detection(mvs: Vector[MaskedValue], sig: Vector[(Pattern, Double)], errors: Set[Int])

  /** Replay masking, learning and matching for `values` (as both
    * `cleanColumn` and `ExecutionGuided.clean` do). `train` selects the rows
    * patterns are learned on; `allSignificant` keeps every learned pattern
    * (§3.6). The error set is the rows of `candidates` that miss every
    * kept pattern, plus fuzzy semantic hits when `semanticErrors` is set.
    */
  def detect(values: Vector[String], cfg: DataVinci.Config, s: Trace,
             train: Int => Boolean, allSignificant: Boolean,
             candidates: Iterable[Int], semanticErrors: Boolean): Detection = {
    val mvs = s.span("semantics.mask")(SemanticMasker.maskColumn(values))
    s.count("semantics.values", values.size)
    s.count("semantics.masked_values", mvs.count(_.isMasked))
    s.count("semantics.fuzzy_occs", mvs.iterator.map(_.occs.count(_.fuzzy)).sum)
    val masked = mvs.map(_.masked)
    val trainVals = masked.indices.filter(train).map(masked)
    if (trainVals.isEmpty) return Detection(mvs, Vector.empty, Set.empty)
    val learned = s.span("pattern.learn")(PatternLearner.learn(trainVals, cfg.maxPatterns))
    s.count("pattern.columns", 1)
    s.count("pattern.learned", learned.patterns.size)
    if (learned.patterns.size > cfg.maxPatterns) s.count("pattern.over_k_cols", 1)
    val sig = if (allSignificant) learned.patterns else learned.significant(cfg.delta)
    s.count("pattern.significant", sig.size)
    if (sig.isEmpty) return Detection(mvs, sig, Set.empty)
    val miss = s.span("pattern.match")(candidates.filter(r => !sig.exists(_._1.matches(masked(r)))).toSet)
    s.count("pattern.matched_values", candidates.size)
    val semantic =
      if (semanticErrors) masked.indices.filter(r => mvs(r).occs.exists(o => o.fuzzy && o.suggestion != o.original)).toSet
      else Set.empty[Int]
    val errors = miss ++ semantic
    s.count("pattern.flagged", errors.size)
    Detection(mvs, sig, errors)
  }

  /** Replay concretizer training and the edit DP for the flagged rows. */
  def repairStages(table: Table, det: Detection, feats: Vector[Predicates.Feature],
                   cfg: DataVinci.Config, s: Trace): Unit = {
    val masked = det.mvs.map(_.masked)
    val suggestions = det.mvs.map(_.occs.map(_.suggestion))
    for ((p, _) <- det.sig) {
      val con = s.span("repair.concretizer")(new Concretizer(table, feats, p, masked, suggestions, cfg.alpha))
      s.count("repair.concretizers", 1)
      s.count("repair.captured_rows", con.matchingRows.size)
    }
    for (r <- det.errors.toVector.sorted; (p, _) <- det.sig) {
      val v = masked(r)
      val dag = s.span("repair.dp") {
        val d = Dag.build(p, v.length)
        EditDp.minimalRepairs(d, v)
        d
      }
      s.count("repair.dp_calls", 1)
      s.count("repair.dp_cells", (v.length + 1).toDouble * dag.edges.length)
    }
  }

  /** Re-rank the candidates a cell repair exposes; `false` when the re-ranked
    * head differs from the suggestion `cleanColumn` made.
    */
  def rankStage(cell: DataVinci.CellRepair, nonErrorValues: Vector[String],
                cfg: DataVinci.Config, s: Trace): Boolean = {
    val cands = cell.candidates.map(c => Ranker.Candidate(c.repaired, c.patternPretty, c.coverage, c.alnumEdits, c.cost))
    s.count("rank.cells", 1)
    if (cands.size >= 5) s.count("rank.truncated_cells", 1)
    s.count("rank.candidates", cands.size)
    s.count("rank.lev_calls", cands.size.toDouble * nonErrorValues.size)
    val ranked = s.span("rank")(Ranker.rank(cell.original, cands, nonErrorValues, cfg.weights, cfg.editDistanceRanking))
    ranked.headOption.map(_.repaired) == cell.suggestion
  }

  /** `DataVinci.cleanColumn` under a `core.clean` span, with its replay. The
    * result is the pipeline's own, whatever the replay finds.
    */
  def cleanColumn(table: Table, c: Int, cfg: DataVinci.Config, feats: SharedFeatures,
                  t: Trace): DataVinci.ColumnResult = {
    val s = new Trace
    val values = table.col(c).values
    val det = detect(values, cfg, s, _ => true, allSignificant = false, values.indices, semanticErrors = true)
    // cleanColumn reads the shared features only when the column has errors
    val featsOpt = if (det.errors.nonEmpty) Some(feats.get) else None
    val res = s.span("core.clean")(DataVinci.cleanColumn(table, c, cfg, featsOpt))
    var same = res.significant == det.sig && res.errors == det.errors
    if (same && det.errors.nonEmpty) {
      repairStages(table, det, feats.get, cfg, s)
      val nonErrorValues = values.indices.filterNot(det.errors).map(values).toVector
      for (r <- det.errors.toVector.sorted; cell <- res.repairs.get(r))
        same &= rankStage(cell, nonErrorValues, cfg, s)
      s.count("repair.suggested", res.repairs.count(_._2.suggestion.nonEmpty))
    }
    commit(t, s, same)
    res
  }

  /** Merge a column's scratch trace when its replay matched, else count it. */
  def commit(t: Trace, s: Trace, same: Boolean): Unit = {
    t.count("trace.columns", 1)
    if (same) t.merge(s) else t.count("trace.dropped_columns", 1)
  }
}
