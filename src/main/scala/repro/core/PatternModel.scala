package repro.core

import repro.core.DataVinci.{CellRepair, Config}
import repro.core.pattern._
import repro.core.repair._
import repro.semantics.{MaskedValue, SemanticMasker}

/** The pattern model of one column (§3): the column's masked values, the
  * significant patterns learned over `trainRows`, and, built on first use,
  * one concretizer per significant pattern. Every entry point is a caller:
  * `DataVinci.cleanColumn` trains on all rows with δ, `ExecutionGuided.clean`
  * trains on the succeeding rows with δ = 0 so every pattern is significant
  * (§3.6), and `DataVinciSpark.learnColumnModel` reads the patterns and masks
  * back out as regexes. Callers decide which rows are errors.
  *
  * `feats` is evaluated at most once, and only when a repair is requested.
  */
private[core] final class PatternModel(table: Table, val colIdx: Int, trainRows: Seq[Int],
                                       cfg: Config, feats: => Vector[Predicates.Feature]) {
  val values: Vector[String] = table.col(colIdx).values
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
    rows.iterator.filter(r => !significant.exists(_._1.matches(masked(r)))).toSet

  private lazy val concretizers: Vector[(Pattern, Double, Concretizer)] = {
    lazy val fs = feats
    val suggestions = mvs.map(_.occs.map(_.suggestion))
    significant.map { case (p, cov) => (p, cov, new Concretizer(table, fs, p, masked, suggestions, cfg.alpha)) }
  }

  /** Repair every row of `errors`, ranking candidates against the distinct
    * values of the training rows that are not errors.
    */
  def repairs(errors: Set[Int]): Map[Int, CellRepair] = {
    lazy val nonErrorValues = trainRows.filterNot(errors).map(values).toVector.distinct
    errors.iterator.map(r => r -> repair(r, nonErrorValues)).toMap
  }

  /** Repair one erroneous cell against every significant pattern and rank. */
  private def repair(row: Int, nonErrorValues: Vector[String]): CellRepair = {
    val original = values(row)
    val mv = mvs(row)
    val cands = concretizers.flatMap { case (p, cov, con) =>
      val dag = con.dag(mv.masked.length)
      EditDp.minimalRepairs(dag, mv.masked).flatMap { rep =>
        val edits = PatternModel.alnumEdits(dag, rep, mv.masked)
        concretize(rep, con, row, mv).map(s => Ranker.Candidate(s, p.pretty, cov, edits, rep.cost))
      }
    }.filter(_.repaired != original)
    val ranked = Ranker.rank(original, cands, nonErrorValues, cfg.weights, cfg.editDistanceRanking)
    CellRepair(row, original, ranked.headOption.map(_.repaired), ranked.take(5))
  }

  /** Resolve the abstract emit units of a repair into concrete strings.
    * Learned mode has one option per unit, so it yields one candidate;
    * enumeration mode (the "no learned concretization" ablation) yields the
    * capped cross-product.
    */
  private def concretize(rep: AbstractRepair, con: Concretizer, row: Int,
                         mv: MaskedValue): Vector[String] = {
    def ownSuggestion(pos: Int): String = {
      val occIdx = mv.masked.take(pos).count(Masks.isMask)
      mv.occs.lift(occIdx).map(_.suggestion)
        .getOrElse(mv.occs.headOption.map(_.suggestion).getOrElse(""))
    }
    val learned = cfg.learnedConcretization
    rep.emitted.foldLeft(Vector("")) { (acc, unit) =>
      val opts: Vector[String] = unit match {
        case EChar(c) =>
          Vector(if (Masks.isMask(c)) ownSuggestion(mv.masked.indexOf(c)) else c.toString)
        case EMask(_, _, Some(pos)) => Vector(ownSuggestion(pos))
        case u => if (learned) Vector(con.concretize(u, row)) else con.enumerate(u)
      }
      acc.flatMap(p => opts.map(p + _)).take(cfg.maxCandidates)
    }.distinct
  }
}

private[core] object PatternModel {

  /** Count edit operations touching alphanumeric (or semantic) characters —
    * ranker feature (2) of §3.5.
    */
  private def alnumEdits(dag: Dag, rep: AbstractRepair, maskedIn: String): Int = {
    def alnumAt(i: Int): Boolean =
      i >= 0 && i < maskedIn.length && { val c = maskedIn(i); c.isLetterOrDigit || Masks.isMask(c) }
    rep.steps.count { st =>
      st.move match {
        case Move.MatchM => false
        case Move.Del    => alnumAt(st.inIdx)
        case _ =>
          // a substitution destroying an alphanumeric input char counts too
          (st.move == Move.Sub && alnumAt(st.inIdx)) || (dag.edges(st.edge).label match {
            case LitLabel(c)  => c.isLetterOrDigit
            case ClsLabel(cc) => cc != CharClassT.Space
            case MaskLabel(_) => true
          })
      }
    }
  }
}
