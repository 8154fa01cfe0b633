package repro.core.pattern

import java.util.regex.{Pattern => JPattern}

/** Pattern tokens — the regex fragment DataVinci learns over columns (§3.1).
  *
  * A [[Pattern]] is a concatenation of tokens:
  *  - [[Lit]]      — a literal string;
  *  - [[Cls]]      — a character class, either fixed-length (`[0-9]{3}`) or
  *                   one-or-more (`[0-9]+`);
  *  - [[Disj]]     — a disjunction of literal strings (`(CAT|PRO)`);
  *  - [[MaskTok]]  — a semantic-mask symbol produced by abstraction (§3.2);
  *  - [[Group]]    — a one-or-more quantified group over tokens (`(A[0-9].)+`).
  */
sealed trait Tok {
  /** Regex source fragment for this token. */
  def regex: String
  /** Pretty form used in logs, tests and EXPERIMENTS.md. */
  def pretty: String
}

/** Literal string token. */
final case class Lit(s: String) extends Tok {
  require(s.nonEmpty, "empty literal")
  def regex: String  = JPattern.quote(s)
  def pretty: String = s
}

/** Character-class token; `len = None` means one-or-more. */
final case class Cls(cc: CharClassT, len: Option[Int]) extends Tok {
  require(len.forall(_ > 0), s"bad class length $len")
  def regex: String = len match {
    case Some(1) => cc.regex
    case Some(n) => s"${cc.regex}{$n}"
    case None    => s"${cc.regex}+"
  }
  def pretty: String = regex
}

/** Disjunction over literal alternatives. */
final case class Disj(alts: Vector[String]) extends Tok {
  require(alts.size >= 2 && alts.forall(_.nonEmpty), s"bad disjunction $alts")
  def regex: String  = alts.map(JPattern.quote).mkString("(?:", "|", ")")
  def pretty: String = alts.mkString("(", "|", ")")
}

/** Semantic mask token: matches exactly the mask symbol of `semType`. */
final case class MaskTok(semType: String) extends Tok {
  def maskChar: Char = Masks.charFor(semType)
  def regex: String  = JPattern.quote(maskChar.toString)
  def pretty: String = s"{$semType}"
}

/** One-or-more quantified group. */
final case class Group(toks: Vector[Tok]) extends Tok {
  require(toks.nonEmpty, "empty group")
  def regex: String  = toks.map(_.regex).mkString("(?:", "", ")+")
  def pretty: String = toks.map(_.pretty).mkString("(", "", ")+")
}

/** A learned column pattern: a concatenation of tokens matched against the
  * whole cell value.
  */
final case class Pattern(toks: Vector[Tok]) {
  /** Anchored Java regex equivalent of this pattern. */
  lazy val regex: String = toks.map(_.regex).mkString

  private lazy val compiled: JPattern = JPattern.compile(regex)

  /** True iff the whole string is in this pattern's language. */
  def matches(s: String): Boolean = compiled.matcher(s).matches()

  /** Pretty form, e.g. `{country}-[0-9]+-(CAT|PRO)`. */
  def pretty: String = toks.map(_.pretty).mkString

  override def toString: String = s"Pattern(${pretty})"
}

object Pattern {
  /** Convenience constructor. */
  def apply(toks: Tok*): Pattern = Pattern(toks.toVector)
}
