package repro.semantics

/** The semantic knowledge base behind the LLM simulator.
  *
  * The paper uses GPT-3.5 to mask substrings of ~20 popular semantic types
  * (the most frequent Sherlock types) and to suggest repaired replacements.
  * Offline we substitute a curated entity dictionary: each entity carries
  * several named *forms* (e.g. country → code2/code3/name) so the masker can
  * both recognize any form and re-render a suggestion in the column's
  * dominant form — reproducing the LLM behaviours the pipeline depends on
  * (`usa → US`, `u.k. → UK`, `Birminxham → Birmingham`).
  */
final case class Entity(semType: String, forms: Vector[(String, String)]) {
  /** The canonical surface (first form). */
  def canonical: String = forms.head._2
  def form(name: String): Option[String] = forms.collectFirst { case (`name`, s) => s }
}

object SemanticKB {

  private def e(t: String, forms: (String, String)*): Entity = Entity(t, forms.toVector)

  private val countries: Vector[Entity] = Vector(
    ("US", "USA", "United States"), ("UK", "GBR", "United Kingdom"), ("IN", "IND", "India"),
    ("FR", "FRA", "France"), ("DE", "GER", "Germany"), ("ES", "ESP", "Spain"),
    ("IT", "ITA", "Italy"), ("CN", "CHN", "China"), ("JP", "JPN", "Japan"),
    ("BR", "BRA", "Brazil"), ("CA", "CAN", "Canada"), ("AU", "AUS", "Australia"),
    ("MX", "MEX", "Mexico"), ("RU", "RUS", "Russia"), ("PL", "POL", "Poland"),
    ("NL", "NED", "Netherlands"), ("SE", "SWE", "Sweden"), ("NO", "NOR", "Norway"),
    ("CH", "SUI", "Switzerland"), ("AR", "ARG", "Argentina"), ("PT", "POR", "Portugal"),
    ("GR", "GRE", "Greece"), ("TR", "TUR", "Turkey"), ("EG", "EGY", "Egypt"),
    ("ZA", "RSA", "South Africa"), ("KR", "KOR", "South Korea"), ("TH", "THA", "Thailand"),
    ("NZ", "NZL", "New Zealand"), ("IE", "IRL", "Ireland"), ("BE", "BEL", "Belgium"),
  ).map { case (c2, c3, n) => e("country", "code2" -> c2, "code3" -> c3, "name" -> n) }

  private val cities: Vector[Entity] = Vector(
    "New York", "Boston", "Miami", "Chicago", "Seattle", "Denver", "Austin", "Dallas",
    "Houston", "Phoenix", "Portland", "Atlanta", "Detroit", "Rockford", "Hampton",
    "London", "Birmingham", "Manchester", "Leeds", "Liverpool", "Bristol", "Glasgow",
    "Paris", "Berlin", "Madrid", "Rome", "Vienna", "Prague", "Dublin", "Amsterdam",
    "Tokyo", "Osaka", "Beijing", "Shanghai", "Mumbai", "Delhi", "Sydney", "Melbourne",
    "Toronto", "Vancouver", "Lagos", "Cairo", "Nairobi", "Lima", "Bogota", "Santiago",
  ).map(n => e("city", "name" -> n))

  private val names: Vector[Entity] = Vector(
    "John", "Matt", "Sophie", "Emma", "Olivia", "Liam", "Noah", "James", "Lucas",
    "Mia", "Amelia", "Harry", "Oscar", "George", "Jack", "Thomas", "Charlie",
    "Alice", "Grace", "Ella", "David", "Daniel", "Michael", "Sarah", "Laura",
    "Peter", "Anna", "Maria", "Carlos", "Diego", "Elena", "Nina", "Ravi", "Priya",
  ).map(n => e("name", "name" -> n))

  private val states: Vector[Entity] = Vector(
    ("CA", "California"), ("NY", "New York"), ("TX", "Texas"), ("FL", "Florida"),
    ("WA", "Washington"), ("OR", "Oregon"), ("NV", "Nevada"), ("AZ", "Arizona"),
    ("CO", "Colorado"), ("IL", "Illinois"), ("OH", "Ohio"), ("GA", "Georgia"),
    ("MI", "Michigan"), ("PA", "Pennsylvania"), ("MA", "Massachusetts"),
    ("VA", "Virginia"), ("NC", "North Carolina"), ("NJ", "New Jersey"),
    ("MN", "Minnesota"), ("WI", "Wisconsin"), ("UT", "Utah"), ("KS", "Kansas"),
  ).map { case (a, n) => e("state", "abbr" -> a, "name" -> n) }

  private val companies: Vector[Entity] = Vector(
    "Google", "Microsoft", "Apple", "Amazon", "Facebook", "Netflix", "Tesla",
    "Intel", "Oracle", "Adobe", "Samsung", "Sony", "Toyota", "Boeing", "Siemens",
    "Nokia", "Philips", "Shell", "Walmart", "Target",
  ).map(n => e("company", "name" -> n))

  private val months: Vector[Entity] = Vector(
    ("Jan", "January"), ("Feb", "February"), ("Mar", "March"), ("Apr", "April"),
    ("May", "May"), ("Jun", "June"), ("Jul", "July"), ("Aug", "August"),
    ("Sep", "September"), ("Oct", "October"), ("Nov", "November"), ("Dec", "December"),
  ).map { case (a, n) => e("month", "name" -> n, "abbr" -> a) }

  private val weekdays: Vector[Entity] = Vector(
    ("Mon", "Monday"), ("Tue", "Tuesday"), ("Wed", "Wednesday"), ("Thu", "Thursday"),
    ("Fri", "Friday"), ("Sat", "Saturday"), ("Sun", "Sunday"),
  ).map { case (a, n) => e("weekday", "name" -> n, "abbr" -> a) }

  private val colors: Vector[Entity] = Vector(
    "Red", "Green", "Blue", "Yellow", "Orange", "Purple", "Black", "White",
    "Brown", "Pink", "Gray", "Cyan", "Magenta", "Violet", "Indigo", "Teal",
  ).map(n => e("color", "name" -> n))

  private val currencies: Vector[Entity] = Vector(
    ("USD", "Dollar"), ("EUR", "Euro"), ("GBP", "Pound"), ("JPY", "Yen"),
    ("INR", "Rupee"), ("CNY", "Yuan"), ("CHF", "Franc"), ("AUD", "Australian Dollar"),
    ("CAD", "Canadian Dollar"), ("SEK", "Krona"), ("BRL", "Real"), ("KRW", "Won"),
  ).map { case (c, n) => e("currency", "code" -> c, "name" -> n) }

  private val languages: Vector[Entity] = Vector(
    "English", "French", "German", "Spanish", "Italian", "Portuguese", "Dutch",
    "Russian", "Mandarin", "Japanese", "Korean", "Hindi", "Arabic", "Swedish",
  ).map(n => e("language", "name" -> n))

  private val teams: Vector[Entity] = Vector(
    "Lakers", "Celtics", "Warriors", "Bulls", "Knicks", "Heat", "Spurs",
    "Arsenal", "Chelsea", "Liverpool", "Barcelona", "Juventus",
  ).map(n => e("team", "name" -> n))

  private val sports: Vector[Entity] = Vector(
    "Soccer", "Tennis", "Cricket", "Basketball", "Baseball", "Hockey", "Golf",
    "Rugby", "Swimming", "Cycling", "Boxing", "Skiing",
  ).map(n => e("sport", "name" -> n))

  private val brands: Vector[Entity] = Vector(
    "Nike", "Adidas", "Puma", "Reebok", "Gucci", "Prada", "Zara", "Levis",
    "Rolex", "Omega", "Chrome", "Firefox", "Safari", "Opera",
  ).map(n => e("brand", "name" -> n))

  private val products: Vector[Entity] = Vector(
    "Laptop", "Phone", "Tablet", "Monitor", "Keyboard", "Mouse", "Printer",
    "Camera", "Speaker", "Router", "Charger", "Headset",
  ).map(n => e("product", "name" -> n))

  private val categories: Vector[Entity] = Vector(
    "Junior", "Professional", "Qualifier", "Amateur", "Senior", "Veteran",
  ).map(n => e("category", "name" -> n))

  private val genders: Vector[Entity] =
    Vector("Male", "Female", "Nonbinary").map(n => e("gender", "name" -> n))

  private val nationalities: Vector[Entity] = Vector(
    "American", "British", "Indian", "French", "German", "Spanish", "Italian",
    "Chinese", "Japanese", "Brazilian", "Canadian", "Australian", "Mexican",
  ).map(n => e("nationality", "name" -> n))

  private val regions: Vector[Entity] = Vector(
    "Midwest", "Northeast", "Southwest", "Southeast", "Northwest", "Wales",
    "Scotland", "Bavaria", "Catalonia", "Tuscany", "Provence", "Alpine", "Kings",
    "Lake", "Santa Clara", "Nevada",
  ).map(n => e("region", "name" -> n))

  private val continents: Vector[Entity] = Vector(
    "Africa", "Antarctica", "Asia", "Europe", "Oceania",
  ).map(n => e("continent", "name" -> n))

  /** All entities, grouped by semantic type. */
  val entities: Map[String, Vector[Entity]] = Vector(
    countries, cities, names, states, companies, months, weekdays, colors,
    currencies, languages, teams, sports, brands, products, categories,
    genders, nationalities, regions, continents,
  ).flatten.groupBy(_.semType)

  /** Normalize a surface for lookup: lowercase, periods stripped. */
  def normalize(s: String): String = s.toLowerCase.replace(".", "")

  /** Inverse of the visual-typo map (§4.2's `o→0, l→1, e→3, a→4, t→7, s→5`):
    * maps look-alike digits back to letters so `U5 → us`, `P0L → pol`,
    * `H4rry → harry` resolve against the dictionary.
    */
  val visualInv: Map[Char, Char] =
    Map('0' -> 'o', '1' -> 'l', '3' -> 'e', '4' -> 'a', '7' -> 't', '5' -> 's')

  def devisualize(s: String): String = s.map(c => visualInv.getOrElse(c, c))

  /** Exact lookup index: normalized surface → (entity, form name). */
  val index: Map[String, Vector[(Entity, String)]] =
    entities.values.flatten.toVector
      .flatMap(en => en.forms.map { case (fn, s) => (normalize(s), en, fn) })
      .groupBy(_._1).view.mapValues(_.map(t => (t._2, t._3))).toMap

  /** Per semantic type, (entity, form name, normalized form) in entity and
    * form order.
    */
  private val normalizedForms: Map[String, Vector[(Entity, String, String)]] =
    entities.view.mapValues(_.flatMap(en => en.forms.map { case (fn, s) => (en, fn, normalize(s)) })).toMap

  /** Fuzzy lookup within one semantic type: best entity/form within the
    * length-scaled edit-distance budget, `None` on miss or tie between
    * different entities.
    */
  def fuzzy(token: String, semType: String): Option[(Entity, String, Int)] = {
    val t = normalize(token)
    // 3-char tokens are too collision-prone (CAT ~ CAN, PRO ~ POR): fuzzy
    // matching needs at least 4 characters, two-edit budget needs 6
    val budget = if (t.length >= 6) 2 else if (t.length >= 4) 1 else 0
    if (budget == 0) return None
    // the length difference bounds the edit distance from below
    val hits = normalizedForms.getOrElse(semType, Vector.empty).collect {
      case (en, fn, s) if math.abs(s.length - t.length) <= budget => (en, fn, repro.core.Strings.damerauWithin(t, s, budget))
    }.filter(_._3 <= budget)
    if (hits.isEmpty) None
    else {
      val best = hits.minBy(_._3)
      val tied = hits.filter(_._3 == best._3).map(_._1.canonical).distinct
      if (tied.size == 1) Some(best) else None
    }
  }
}
