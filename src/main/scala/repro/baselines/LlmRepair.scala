package repro.baselines

import repro.core.{Strings, Table}
import repro.semantics.SemanticKB

/** Deterministic stand-in for the GPT-3.5 repair module the paper bolts onto
  * detection-only systems (§4.3: outlier value + header + nearby sample
  * values in the prompt, one repair call per outlier).
  *
  * Capability model (what few-shot GPT-3.5 demonstrably does well in the
  * paper's analysis): canonicalize misspelled/misformatted *semantic*
  * entities to the column's majority rendering, snap rare values to a close
  * frequent neighbour, and transfer the column's dominant punctuation
  * template onto an outlier's content runs.
  */
object LlmRepair {

  /** Suggest a repair for the outlier at (`colIdx`, `row`), or `None`. */
  def repair(table: Table, colIdx: Int, row: Int): Option[String] = {
    val values = table.col(colIdx).values
    val v      = values(row)
    val others = values.zipWithIndex.filter(_._2 != row).map(_._1)

    semanticFix(v, others)
      .orElse(frequentNeighbor(v, others))
      .orElse(templateTransfer(v, others))
      .filter(_ != v)
  }

  /** Fix misspelled or misformatted entity substrings to the column-majority
    * rendering of the same entity.
    */
  private[baselines] def semanticFix(v: String, others: Vector[String]): Option[String] = {
    // elect types + styles from the other values
    val hits = others.flatMap(entityTokens)
    if (hits.isEmpty) return None
    val byType = hits.groupBy(_._2.semType)
    val elected = byType.filter { case (_, hs) => hs.size >= math.max(2, others.size / 4) }
    if (elected.isEmpty) return None

    var out = v
    var changed = false
    for (tok <- tokensWithPos(v).reverse) { // reverse: replace right-to-left, offsets stay valid
      val (start, end, surface) = tok
      val exact = SemanticKB.index.getOrElse(SemanticKB.normalize(surface), Vector.empty)
        .filter { case (en, _) => elected.contains(en.semType) }
      val fuzzyHits = elected.keys.toVector
        .flatMap(t => SemanticKB.fuzzy(surface, t).map { case (en, _, d) => (en, d) })
      val m = exact.headOption.map { case (en, _) => (en, 0) }
        .orElse(if (fuzzyHits.isEmpty) None else Some(fuzzyHits.minBy(_._2)))
      m match {
        case Some((en, _)) =>
          val rendered = majorityRendering(en.semType, elected(en.semType))
            .flatMap(fn => en.form(fn._1).map(s => applyCase(s, fn._2)))
            .getOrElse(en.canonical)
          if (rendered != surface) { out = out.substring(0, start) + rendered + out.substring(end); changed = true }
        case None => ()
      }
    }
    if (changed) Some(out) else None
  }

  private def entityTokens(v: String): Vector[(String, repro.semantics.Entity)] =
    tokensWithPos(v).flatMap { case (_, _, s) =>
      SemanticKB.index.getOrElse(SemanticKB.normalize(s), Vector.empty).map(h => (s, h._1))
    }

  private def tokensWithPos(v: String): Vector[(Int, Int, String)] =
    "[A-Za-z][A-Za-z.]*".r.findAllMatchIn(v).map(m => (m.start, m.end, m.matched)).toVector

  private def majorityRendering(semType: String, hs: Vector[(String, repro.semantics.Entity)]): Option[(String, String)] = {
    val styles = hs.flatMap { case (surface, en) =>
      en.forms.collectFirst { case (fn, s) if SemanticKB.normalize(s) == SemanticKB.normalize(surface) => (fn, caseShape(surface)) }
    }
    styles.groupBy(identity).view.mapValues(_.size).toVector.sortBy(-_._2).headOption.map(_._1)
  }

  private def caseShape(s: String): String =
    if (s.forall(c => !c.isLetter || c.isUpper)) "upper"
    else if (s.forall(c => !c.isLetter || c.isLower)) "lower"
    else "title"

  private def applyCase(s: String, shape: String): String = shape match {
    case "upper" => s.toUpperCase
    case "lower" => s.toLowerCase
    case _       => s
  }

  /** Snap to a close frequent neighbour (edit distance ≤ 2, frequency ≥ 2). */
  private[baselines] def frequentNeighbor(v: String, others: Vector[String]): Option[String] = {
    val freq = ColumnStats.freq(others)
    val dist = Strings.levFrom(v)
    freq.toVector.filter { case (w, c) => c >= 2 && w != v && dist(w) <= 2 }
      .sortBy { case (w, c) => (dist(w), -c, w) }
      .headOption.map(_._1)
  }

  /** Re-shape the outlier's content runs into the column's dominant
    * punctuation template (e.g. `(937) 509 6413 → 937-509-6413`).
    */
  private[baselines] def templateTransfer(v: String, others: Vector[String]): Option[String] = {
    val shares = ColumnStats.sigShare(others)
    if (shares.isEmpty) return None
    val (domSig, share) = shares.maxBy { case (s, c) => (c, s) }
    if (share < 0.5 || ColumnStats.coarseSig(v) == domSig) return None
    val exemplar = others.find(o => ColumnStats.coarseSig(o) == domSig).getOrElse(return None)
    val vRuns  = contentRuns(v)
    val eRuns  = contentRuns(exemplar)
    if (vRuns.map(_._2) != eRuns.map(_._2)) return None // run kinds must line up
    // splice v's runs into the exemplar's skeleton
    val sb = new StringBuilder
    var vi = 0
    var i  = 0
    while (i < exemplar.length) {
      val c = exemplar(i)
      if (c.isLetterOrDigit) {
        while (i < exemplar.length && exemplar(i).isLetterOrDigit) i += 1
        sb.append(vRuns(vi)._1); vi += 1
      } else { sb.append(c); i += 1 }
    }
    Some(sb.toString)
  }

  /** Maximal alphanumeric runs with their kind (digit vs letter vs mixed). */
  private def contentRuns(v: String): Vector[(String, Char)] = {
    val out = Vector.newBuilder[(String, Char)]
    var i = 0
    while (i < v.length) {
      if (v(i).isLetterOrDigit) {
        val start = i
        while (i < v.length && v(i).isLetterOrDigit) i += 1
        val run = v.substring(start, i)
        val kind = if (run.forall(_.isDigit)) 'D' else if (run.forall(_.isLetter)) 'L' else 'M'
        out += ((run, kind))
      } else i += 1
    }
    out.result()
  }
}
