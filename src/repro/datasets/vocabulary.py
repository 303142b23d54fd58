"""Concept vocabularies for the synthetic folksonomy generator.

A *concept* is a semantically coherent idea ("music listening", "wedding
photography", "open-source code") that taggers express through one of several
surface tags.  The surface forms are classified by the same correlation types
the paper's Table IV reports: plain synonyms, cross-language cognates,
morphological variants and abbreviations.  Concepts are grouped into
*domains* (web/tech, academic, music, photography, ...) that the dataset
profiles draw from so the Delicious-, Bibsonomy- and Last.fm-like corpora
have appropriately different vocabularies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.utils.errors import ConfigurationError
from repro.utils.rng import SeedLike, make_rng


class TagKind(str, Enum):
    """How a surface tag relates to its concept (mirrors Table IV)."""

    CANONICAL = "canonical"
    SYNONYM = "synonym"
    COGNATE = "cognate"
    MORPHOLOGICAL = "morphological"
    ABBREVIATION = "abbreviation"


@dataclass(frozen=True)
class ConceptSpec:
    """One latent concept with its surface tag forms.

    Attributes
    ----------
    name:
        Stable identifier of the concept (never appears as a tag).
    domain:
        The topical domain the concept belongs to (``web``, ``music``, ...).
    aspect:
        The *aspect* the concept describes (``content``, ``technique``,
        ``genre``, ``event`` ...) — different tagger interest groups focus on
        different aspects of the same resource, which is the paper's central
        motivation for the tagger dimension.
    tags:
        Mapping from surface tag to its :class:`TagKind`.
    """

    name: str
    domain: str
    aspect: str
    tags: Mapping[str, TagKind]

    def __post_init__(self) -> None:
        if not self.tags:
            raise ConfigurationError(f"concept {self.name!r} has no surface tags")

    @property
    def surface_tags(self) -> Tuple[str, ...]:
        return tuple(self.tags.keys())

    @property
    def canonical_tag(self) -> str:
        for tag, kind in self.tags.items():
            if kind is TagKind.CANONICAL:
                return tag
        return next(iter(self.tags))


@dataclass
class Vocabulary:
    """A collection of concepts plus optional deliberately polysemous tags."""

    concepts: List[ConceptSpec] = field(default_factory=list)
    #: tags intentionally shared by more than one concept (polysemy)
    polysemous_tags: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [c.name for c in self.concepts]
        if len(names) != len(set(names)):
            raise ConfigurationError("concept names must be unique")

    def __len__(self) -> int:
        return len(self.concepts)

    def concept(self, name: str) -> ConceptSpec:
        for concept in self.concepts:
            if concept.name == name:
                return concept
        raise KeyError(f"no concept named {name!r}")

    def concept_names(self) -> Tuple[str, ...]:
        return tuple(c.name for c in self.concepts)

    def domains(self) -> Tuple[str, ...]:
        return tuple(sorted({c.domain for c in self.concepts}))

    def aspects(self) -> Tuple[str, ...]:
        return tuple(sorted({c.aspect for c in self.concepts}))

    def all_tags(self) -> Tuple[str, ...]:
        """Every distinct surface tag across all concepts."""
        tags = set()
        for concept in self.concepts:
            tags.update(concept.surface_tags)
        tags.update(self.polysemous_tags)
        return tuple(sorted(tags))

    def tag_to_concepts(self) -> Dict[str, FrozenSet[str]]:
        """Ground-truth mapping from surface tag to the concepts it expresses."""
        mapping: Dict[str, set] = {}
        for concept in self.concepts:
            for tag in concept.surface_tags:
                mapping.setdefault(tag, set()).add(concept.name)
        for tag, concept_names in self.polysemous_tags.items():
            mapping.setdefault(tag, set()).update(concept_names)
        return {tag: frozenset(names) for tag, names in mapping.items()}

    def restrict_to_domains(self, domains: Sequence[str]) -> "Vocabulary":
        """A new vocabulary containing only concepts from ``domains``."""
        wanted = set(domains)
        kept = [c for c in self.concepts if c.domain in wanted]
        kept_names = {c.name for c in kept}
        polysemy = {
            tag: tuple(n for n in names if n in kept_names)
            for tag, names in self.polysemous_tags.items()
        }
        polysemy = {t: names for t, names in polysemy.items() if len(names) >= 2}
        return Vocabulary(concepts=kept, polysemous_tags=polysemy)


def _concept(
    name: str,
    domain: str,
    aspect: str,
    canonical: str,
    synonyms: Sequence[str] = (),
    cognates: Sequence[str] = (),
    morphological: Sequence[str] = (),
    abbreviations: Sequence[str] = (),
) -> ConceptSpec:
    tags: Dict[str, TagKind] = {canonical: TagKind.CANONICAL}
    for tag in synonyms:
        tags[tag] = TagKind.SYNONYM
    for tag in cognates:
        tags[tag] = TagKind.COGNATE
    for tag in morphological:
        tags[tag] = TagKind.MORPHOLOGICAL
    for tag in abbreviations:
        tags[tag] = TagKind.ABBREVIATION
    return ConceptSpec(name=name, domain=domain, aspect=aspect, tags=tags)


def _web_concepts() -> List[ConceptSpec]:
    """Concepts characteristic of a Delicious-like bookmarking corpus."""
    return [
        _concept("music_listening", "web", "content", "music",
                 synonyms=("audio", "songs", "mp3"), cognates=("musik",)),
        _concept("video_sharing", "web", "content", "video",
                 synonyms=("movie", "films", "youtube")),
        _concept("photo_sharing", "web", "content", "photo",
                 synonyms=("photos", "flickr"), cognates=("foto",),
                 morphological=("photography",)),
        _concept("open_source", "web", "technique", "opensource",
                 synonyms=("open source", "code", "foss"),
                 abbreviations=("oss",)),
        _concept("web_design", "web", "technique", "webdesign",
                 synonyms=("css", "design", "layout")),
        _concept("javascript_dev", "web", "technique", "javascript",
                 synonyms=("ajax", "frontend"), abbreviations=("js",)),
        _concept("python_dev", "web", "technique", "python",
                 synonyms=("scripting", "django")),
        _concept("linux_admin", "web", "technique", "linux",
                 synonyms=("ubuntu", "debian", "unix")),
        _concept("security", "web", "technique", "security",
                 synonyms=("antivirus", "virus", "firewall"),
                 abbreviations=("infosec",)),
        _concept("wireless_network", "web", "technique", "wireless",
                 synonyms=("wifi", "network", "router")),
        _concept("england_travel", "web", "place", "england",
                 synonyms=("britain", "uk", "london")),
        _concept("travel_planning", "web", "place", "travel",
                 synonyms=("tourism", "vacation"), cognates=("voyage",),
                 morphological=("travelling",)),
        _concept("cooking_recipes", "web", "content", "recipes",
                 synonyms=("cooking", "food"), cognates=("cuisine",),
                 morphological=("recipe",)),
        _concept("humour_pages", "web", "content", "humour",
                 synonyms=("comedy", "funny", "jokes"), cognates=("humor",)),
        _concept("news_reading", "web", "content", "news",
                 synonyms=("journalism", "headlines"),
                 morphological=("newspaper",)),
        _concept("shopping_deals", "web", "content", "shopping",
                 synonyms=("deals", "store", "buy")),
        _concept("reference_lookup", "web", "content", "reference",
                 synonyms=("dictionary", "encyclopedia", "wiki"),
                 cognates=("dictionnaire",)),
        _concept("quotations", "web", "content", "quotes",
                 synonyms=("sayings",), morphological=("quote", "quotation")),
        _concept("advertising", "web", "content", "advertising",
                 synonyms=("marketing",), abbreviations=("ad", "ads"),
                 morphological=("advertisement",)),
        _concept("blogging", "web", "content", "blog",
                 synonyms=("weblog", "blogger"), morphological=("blogs", "blogging")),
        _concept("education_resources", "web", "content", "education",
                 synonyms=("learning", "teaching", "courses")),
        _concept("health_medicine", "web", "content", "health",
                 synonyms=("medicine", "wellness"), morphological=("healthy",)),
        _concept("cancer_support", "web", "content", "cancer",
                 synonyms=("oncology", "charities")),
        _concept("wedding_events", "web", "event", "wedding",
                 synonyms=("marriage", "engagement"), morphological=("weddings",)),
        _concept("folk_culture", "web", "content", "folk",
                 synonyms=("people", "tradition"), morphological=("folklore",)),
        _concept("laptop_hardware", "web", "content", "laptop",
                 synonyms=("notebook", "hardware"), morphological=("laptops",)),
    ]


def _academic_concepts() -> List[ConceptSpec]:
    """Concepts characteristic of a Bibsonomy-like publication corpus."""
    return [
        _concept("machine_learning", "academic", "topic", "machinelearning",
                 synonyms=("learning", "classification"), abbreviations=("ml",)),
        _concept("data_mining", "academic", "topic", "datamining",
                 synonyms=("mining", "kdd", "patterns")),
        _concept("databases", "academic", "topic", "database",
                 synonyms=("sql", "storage"), abbreviations=("db",),
                 morphological=("databases",)),
        _concept("information_retrieval", "academic", "topic", "retrieval",
                 synonyms=("search", "ranking"), abbreviations=("ir",)),
        _concept("semantic_web", "academic", "topic", "semanticweb",
                 synonyms=("ontology", "rdf", "owl")),
        _concept("social_networks", "academic", "topic", "socialnetworks",
                 synonyms=("networks", "graphs"), abbreviations=("sna",)),
        _concept("folksonomy_research", "academic", "topic", "folksonomy",
                 synonyms=("tagging", "tags", "bookmarking")),
        _concept("bioinformatics", "academic", "topic", "bioinformatics",
                 synonyms=("genomics", "proteins"), abbreviations=("bioinf",)),
        _concept("visualization", "academic", "method", "visualization",
                 synonyms=("charts", "graphics"), cognates=("visualisierung",),
                 morphological=("visualisation",)),
        _concept("statistics_methods", "academic", "method", "statistics",
                 synonyms=("bayesian", "regression"), abbreviations=("stats",)),
        _concept("nlp_research", "academic", "topic", "nlp",
                 synonyms=("linguistics", "parsing"),
                 morphological=("language",)),
        _concept("evaluation_methods", "academic", "method", "evaluation",
                 synonyms=("benchmark", "metrics"),
                 morphological=("evaluating",)),
        _concept("clustering_methods", "academic", "method", "clustering",
                 synonyms=("kmeans", "partitioning"),
                 morphological=("clusters",)),
        _concept("recommender_systems", "academic", "topic", "recommender",
                 synonyms=("recommendation", "collaborativefiltering"),
                 abbreviations=("recsys",)),
        _concept("distributed_systems", "academic", "topic", "distributed",
                 synonyms=("parallel", "cluster"), abbreviations=("hpc",)),
        _concept("teaching_material", "academic", "purpose", "teaching",
                 synonyms=("lecture", "course", "tutorial")),
    ]


def _music_concepts() -> List[ConceptSpec]:
    """Concepts characteristic of a Last.fm-like music corpus."""
    return [
        _concept("rock_music", "music", "genre", "rock",
                 synonyms=("classicrock", "hardrock"),
                 morphological=("rocks",)),
        _concept("pop_music", "music", "genre", "pop",
                 synonyms=("dancepop", "chartmusic")),
        _concept("jazz_music", "music", "genre", "jazz",
                 synonyms=("bebop", "swing"), cognates=("le-jazz",)),
        _concept("electronic_music", "music", "genre", "electronic",
                 synonyms=("techno", "house", "electro"),
                 abbreviations=("edm",)),
        _concept("hiphop_music", "music", "genre", "hiphop",
                 synonyms=("rap", "urban")),
        _concept("classical_music", "music", "genre", "classical",
                 synonyms=("orchestra", "symphony"), cognates=("klassik",)),
        _concept("metal_music", "music", "genre", "metal",
                 synonyms=("heavymetal", "thrash")),
        _concept("folk_music", "music", "genre", "folkmusic",
                 synonyms=("acoustic", "singer-songwriter")),
        _concept("indie_music", "music", "genre", "indie",
                 synonyms=("alternative", "indierock")),
        _concept("female_vocalists", "music", "artist", "femalevocalists",
                 synonyms=("femalevocal", "singer")),
        _concept("live_recordings", "music", "format", "live",
                 synonyms=("concert", "bootleg"), morphological=("liveshow",)),
        _concept("chillout_mood", "music", "mood", "chillout",
                 synonyms=("ambient", "relaxing", "downtempo")),
        _concept("party_mood", "music", "mood", "party",
                 synonyms=("dance", "upbeat")),
        _concept("sad_mood", "music", "mood", "melancholy",
                 synonyms=("sad", "melancholic")),
        _concept("festival_events", "music", "event", "festival",
                 synonyms=("glastonbury", "coachella"),
                 morphological=("festivals",)),
        _concept("decade_80s", "music", "era", "80s",
                 synonyms=("eighties", "synthpop")),
        _concept("decade_90s", "music", "era", "90s",
                 synonyms=("nineties", "grunge")),
    ]


#: Polysemous tags shared across concepts (tag -> concepts that use it).
_DEFAULT_POLYSEMY: Dict[str, Tuple[str, ...]] = {
    # "apple" the fruit/cooking sense vs the computing sense
    "apple": ("cooking_recipes", "laptop_hardware"),
    # "rock" the music genre vs travel/geology pages
    "rock": ("rock_music", "travel_planning"),
    # "folk" people/culture vs folk music
    "folk": ("folk_culture", "folk_music"),
    # "python" the language vs (pet) reference pages
    "python": ("python_dev", "reference_lookup"),
    # "cluster" computing vs clustering methods
    "cluster": ("distributed_systems", "clustering_methods"),
    # "pop" music genre vs advertising pop-ups
    "pop": ("pop_music", "advertising"),
}


def build_default_vocabulary(domains: Optional[Sequence[str]] = None) -> Vocabulary:
    """The built-in vocabulary of ~60 concepts across three domains.

    Parameters
    ----------
    domains:
        Optional subset of ``("web", "academic", "music")`` to restrict to.
    """
    concepts = _web_concepts() + _academic_concepts() + _music_concepts()
    vocabulary = Vocabulary(concepts=concepts, polysemous_tags=dict(_DEFAULT_POLYSEMY))
    if domains is not None:
        vocabulary = vocabulary.restrict_to_domains(domains)
    return vocabulary


def expand_vocabulary(
    vocabulary: Vocabulary,
    extra_concepts: int,
    seed: SeedLike = None,
    tags_per_concept: int = 4,
) -> Vocabulary:
    """Add ``extra_concepts`` synthetic concepts to reach larger vocabularies.

    The synthetic concepts get generated surface forms (``topic017``,
    ``topic017s``, ``t17`` ...) spanning the same tag-kind mix as the
    hand-written ones, so scaling up the corpus does not change the
    qualitative structure of the vocabulary.
    """
    if extra_concepts < 0:
        raise ConfigurationError("extra_concepts must be non-negative")
    if tags_per_concept < 1:
        raise ConfigurationError("tags_per_concept must be >= 1")
    rng = make_rng(seed)
    domains = vocabulary.domains() or ("web",)
    aspects = vocabulary.aspects() or ("content",)
    concepts = list(vocabulary.concepts)
    existing = set(vocabulary.concept_names())
    for index in range(extra_concepts):
        name = f"synthetic_concept_{index:04d}"
        if name in existing:
            continue
        domain = str(rng.choice(list(domains)))
        aspect = str(rng.choice(list(aspects)))
        stem = f"topic{index:04d}"
        tags: Dict[str, TagKind] = {stem: TagKind.CANONICAL}
        forms = [
            (f"{stem}s", TagKind.MORPHOLOGICAL),
            (f"{stem}ing", TagKind.MORPHOLOGICAL),
            (f"{stem}-alt", TagKind.SYNONYM),
            (f"{stem}x", TagKind.SYNONYM),
            (f"t{index:04d}", TagKind.ABBREVIATION),
            (f"{stem}o", TagKind.COGNATE),
        ]
        rng.shuffle(forms)
        for tag, kind in forms[: max(0, tags_per_concept - 1)]:
            tags[tag] = kind
        concepts.append(
            ConceptSpec(name=name, domain=domain, aspect=aspect, tags=tags)
        )
    return Vocabulary(concepts=concepts, polysemous_tags=dict(vocabulary.polysemous_tags))
